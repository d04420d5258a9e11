// Package lifecycle closes NAPEL's train→store→promote loop: a
// checkpointed training-job manager (Manager) drives the collection
// engine and the random-forest trainer, a content-addressed model store
// (Store) gives every trained predictor an immutable identity with full
// lineage, and a canary gate compares each candidate against the
// incumbent on a held-out fold before atomically flipping the pointer
// the serving registry follows. cmd/napel-traind is the daemon front
// end; internal/serve's registry reads the store's current-model
// pointer.
package lifecycle

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"napel/internal/atomicfile"
	"napel/internal/napel"
)

// Store layout under its root directory:
//
//	blobs/sha256-<hex>.json   immutable model bytes, named by content hash
//	manifests/m-<seq>.json    Manifest records (lineage + metrics)
//	current                   symlink -> manifests/m-<seq>.json
//	current-model.json        symlink -> blobs/sha256-<hex>.json
//	history.json              promoted manifest IDs, oldest first
//
// Both "current" pointers are flipped with an atomic symlink rename, so
// a napel-serve registry configured with <root>/current-model.json can
// re-read the path at any moment and always sees one complete model
// generation. Blobs are content-addressed: publishing the same weights
// twice stores one file, and a manifest's ModelHash pins exactly which
// bytes it describes.
type Store struct {
	root string

	// mu serializes writers (manifest sequencing, pointer flips,
	// history). Readers of published files need no lock: blobs are
	// immutable and pointers flip atomically.
	mu sync.Mutex
}

// ErrNoCurrent is returned when no model has been promoted yet.
var ErrNoCurrent = errors.New("lifecycle: no model promoted yet")

// ErrNoRollback is returned when the history holds fewer than two
// promotions.
var ErrNoRollback = errors.New("lifecycle: no earlier promotion to roll back to")

// ErrCorruptBlob is returned when a stored model's bytes no longer
// match their content address; the blob has been moved to quarantine/.
var ErrCorruptBlob = errors.New("lifecycle: model blob corrupt")

// Manifest is the lineage record of one stored model: which bytes
// (ModelHash), from which training data (DataHash), trained how
// (Params, Seed, Kernels), by whom (JobID, Build), and how well it
// validated (Metrics). Manifests are immutable once written; promotion
// state lives in the current pointer and history, not in the manifest.
type Manifest struct {
	ID        string                `json:"id"`
	CreatedAt time.Time             `json:"created_at"`
	ModelHash string                `json:"model_hash"`
	DataHash  string                `json:"data_hash,omitempty"`
	Samples   int                   `json:"samples,omitempty"`
	Kernels   []string              `json:"kernels,omitempty"`
	Params    string                `json:"params,omitempty"`
	Seed      uint64                `json:"seed,omitempty"`
	JobID     string                `json:"job_id,omitempty"`
	Build     string                `json:"build,omitempty"`
	Metrics   *napel.HoldoutMetrics `json:"metrics,omitempty"`
}

// OpenStore opens (creating if needed) a model store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	s := &Store{root: dir}
	for _, sub := range []string{dir, s.blobDir(), s.manifestDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("lifecycle: %w", err)
		}
	}
	return s, nil
}

func (s *Store) blobDir() string     { return filepath.Join(s.root, "blobs") }
func (s *Store) manifestDir() string { return filepath.Join(s.root, "manifests") }
func (s *Store) historyPath() string { return filepath.Join(s.root, "history.json") }

// CurrentModelPath is the stable path serving processes point at: a
// symlink that always resolves to the promoted model's blob. It exists
// only after the first promotion.
func (s *Store) CurrentModelPath() string { return filepath.Join(s.root, "current-model.json") }

func (s *Store) currentManifestPath() string { return filepath.Join(s.root, "current") }

// HashBytes returns the store's content address for a byte string.
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256-" + hex.EncodeToString(sum[:])
}

// PutModel stores the serialized predictor under its content hash and
// returns the hash. Storing bytes that already exist is a no-op — the
// dedup that makes a resumed training run (bit-identical output) land
// on the same blob as an uninterrupted one.
func (s *Store) PutModel(data []byte) (string, error) {
	hash := HashBytes(data)
	path := filepath.Join(s.blobDir(), hash+".json")
	if _, err := os.Stat(path); err == nil {
		return hash, nil
	}
	if err := atomicfile.WriteFileData(path, data, 0o444); err != nil {
		return "", err
	}
	return hash, nil
}

// ModelBlobPath returns the on-disk path of a stored model hash.
func (s *Store) ModelBlobPath(hash string) string {
	return filepath.Join(s.blobDir(), hash+".json")
}

func (s *Store) quarantineDir() string { return filepath.Join(s.root, "quarantine") }

// ReadModel reads a stored blob and verifies it against its content
// address — the name IS the checksum, so a flipped bit anywhere in the
// file is detected before the bytes are parsed, let alone served. A
// mismatching blob is moved to quarantine/ (keeping the evidence, and
// letting a re-run of the same training data republish clean bytes
// under the same name) and ErrCorruptBlob is returned.
func (s *Store) ReadModel(hash string) ([]byte, error) {
	data, err := os.ReadFile(s.ModelBlobPath(hash))
	if err != nil {
		return nil, err
	}
	if got := HashBytes(data); got != hash {
		where := "quarantine failed"
		if qpath, qerr := s.quarantineBlob(hash); qerr == nil {
			where = "quarantined at " + qpath
		}
		return nil, fmt.Errorf("%w: %s reads back as %s (%s)", ErrCorruptBlob, hash, got, where)
	}
	return data, nil
}

// quarantineBlob moves a corrupt blob out of blobs/ so it can never be
// promoted or served, returning its new path.
func (s *Store) quarantineBlob(hash string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.MkdirAll(s.quarantineDir(), 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(s.quarantineDir(), hash+".json")
	if err := os.Rename(s.ModelBlobPath(hash), dst); err != nil {
		return "", err
	}
	return dst, nil
}

// Quarantined lists the content addresses currently in quarantine.
func (s *Store) Quarantined() ([]string, error) {
	entries, err := os.ReadDir(s.quarantineDir())
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			out = append(out, strings.TrimSuffix(e.Name(), ".json"))
		}
	}
	sort.Strings(out)
	return out, nil
}

// PutManifest assigns the next manifest ID, stamps CreatedAt if unset,
// and persists the manifest. The blob it references must already be
// stored.
func (s *Store) PutManifest(m *Manifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.ModelHash == "" {
		return fmt.Errorf("lifecycle: manifest without a model hash")
	}
	if _, err := os.Stat(s.ModelBlobPath(m.ModelHash)); err != nil {
		return fmt.Errorf("lifecycle: manifest references unstored blob %s: %w", m.ModelHash, err)
	}
	seq := 1
	ids, err := s.manifestIDsLocked()
	if err != nil {
		return err
	}
	if n := len(ids); n > 0 {
		fmt.Sscanf(ids[n-1], "m-%d", &seq)
		seq++
	}
	m.ID = fmt.Sprintf("m-%06d", seq)
	if m.CreatedAt.IsZero() {
		m.CreatedAt = time.Now().UTC()
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFileData(filepath.Join(s.manifestDir(), m.ID+".json"), data, 0o644)
}

// manifestIDsLocked lists manifest IDs in ascending sequence order.
func (s *Store) manifestIDsLocked() ([]string, error) {
	entries, err := os.ReadDir(s.manifestDir())
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "m-") && strings.HasSuffix(name, ".json") {
			ids = append(ids, strings.TrimSuffix(name, ".json"))
		}
	}
	sort.Strings(ids) // zero-padded sequence numbers sort correctly
	return ids, nil
}

// GetManifest reads one manifest by ID.
func (s *Store) GetManifest(id string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(s.manifestDir(), id+".json"))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("lifecycle: manifest %s: %w", id, err)
	}
	return &m, nil
}

// List returns every manifest in ascending ID order.
func (s *Store) List() ([]*Manifest, error) {
	s.mu.Lock()
	ids, err := s.manifestIDsLocked()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	out := make([]*Manifest, 0, len(ids))
	for _, id := range ids {
		m, err := s.GetManifest(id)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Current returns the promoted manifest, or ErrNoCurrent.
func (s *Store) Current() (*Manifest, error) {
	target, err := os.Readlink(s.currentManifestPath())
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNoCurrent
		}
		return nil, err
	}
	id := strings.TrimSuffix(filepath.Base(target), ".json")
	return s.GetManifest(id)
}

// Promote makes manifest id the serving model: both current pointers
// (manifest and model blob) flip atomically and the promotion is
// appended to the history. A reader resolving CurrentModelPath mid-
// promotion sees the old complete model or the new one.
func (s *Store) Promote(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoteLocked(id, true)
}

func (s *Store) promoteLocked(id string, appendHistory bool) error {
	m, err := s.GetManifest(id)
	if err != nil {
		return fmt.Errorf("lifecycle: promoting %s: %w", id, err)
	}
	if _, err := os.Stat(s.ModelBlobPath(m.ModelHash)); err != nil {
		return fmt.Errorf("lifecycle: promoting %s: blob missing: %w", id, err)
	}
	// Flip the model pointer first: a serving process follows only this
	// link, and each individual flip is atomic.
	if err := atomicfile.Symlink(filepath.Join("blobs", m.ModelHash+".json"), s.CurrentModelPath()); err != nil {
		return err
	}
	if err := atomicfile.Symlink(filepath.Join("manifests", id+".json"), s.currentManifestPath()); err != nil {
		return err
	}
	if !appendHistory {
		return nil
	}
	hist, err := s.historyLocked()
	if err != nil {
		return err
	}
	hist = append(hist, id)
	return s.writeHistoryLocked(hist)
}

// History returns the promoted manifest IDs, oldest first.
func (s *Store) History() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.historyLocked()
}

func (s *Store) historyLocked() ([]string, error) {
	data, err := os.ReadFile(s.historyPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var hist []string
	if err := json.Unmarshal(data, &hist); err != nil {
		return nil, fmt.Errorf("lifecycle: history: %w", err)
	}
	return hist, nil
}

func (s *Store) writeHistoryLocked(hist []string) error {
	data, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFileData(s.historyPath(), data, 0o644)
}

// Rollback re-promotes the previous entry in the promotion history and
// drops the current one, returning the manifest now serving. With fewer
// than two promotions it fails with ErrNoRollback.
func (s *Store) Rollback() (*Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hist, err := s.historyLocked()
	if err != nil {
		return nil, err
	}
	if len(hist) < 2 {
		return nil, ErrNoRollback
	}
	prev := hist[len(hist)-2]
	if err := s.promoteLocked(prev, false); err != nil {
		return nil, err
	}
	if err := s.writeHistoryLocked(hist[:len(hist)-1]); err != nil {
		return nil, err
	}
	return s.GetManifest(prev)
}

// LoadCurrentPredictor loads the promoted model — the incumbent the
// canary gate scores candidates against — verifying its bytes against
// their content address first.
func (s *Store) LoadCurrentPredictor() (*napel.Predictor, *Manifest, error) {
	m, err := s.Current()
	if err != nil {
		return nil, nil, err
	}
	data, err := s.ReadModel(m.ModelHash)
	if err != nil {
		return nil, nil, err
	}
	p, err := napel.LoadPredictor(data)
	if err != nil {
		return nil, nil, err
	}
	return p, m, nil
}

// buildVersion best-efforts the binary's VCS identity for manifest
// lineage (git revision via debug.ReadBuildInfo; "unknown" in tests and
// unstamped builds).
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, dirty string
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			if kv.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		return rev + dirty
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	return "unknown"
}
