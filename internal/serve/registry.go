package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"napel/internal/napel"
)

// DefaultModelName is the registry entry selected when a request names
// no model.
const DefaultModelName = "default"

// Model is one loaded predictor with its serving identity. Version is a
// content hash of the serialized bytes, so the (model, version) pair in
// responses and cache keys changes exactly when the weights do — no
// matter whether the bytes came from a local file or a store pull.
type Model struct {
	Name      string           `json:"name"`
	Path      string           `json:"path"`
	Version   string           `json:"version"`
	LoadedAt  time.Time        `json:"loaded_at"`
	Predictor *napel.Predictor `json:"-"`
}

// Registry maps model names to loaded predictors and supports atomic
// hot reload: readers always see a complete, consistent generation —
// never a half-reloaded mix — and a failed reload leaves the previous
// generation serving. Each entry is backed by a ModelSource (local file
// or HTTP model store); the registry itself is transport-agnostic.
type Registry struct {
	sources map[string]ModelSource // name -> source, fixed at construction

	// reloadMu serializes writers; readers go through the atomic
	// pointer without locking.
	reloadMu sync.Mutex
	models   atomic.Pointer[map[string]*Model]
	reloads  atomic.Uint64
}

// NewRegistry builds a registry over the given name→file-path mapping
// and performs the initial load; it fails if any model cannot be
// loaded.
func NewRegistry(paths map[string]string) (*Registry, error) {
	sources := make(map[string]ModelSource, len(paths))
	for name, path := range paths {
		sources[name] = &FileSource{Path: path}
	}
	r, err := emptyRegistry(sources)
	if err != nil {
		return nil, err
	}
	if _, _, err := r.install(true); err != nil {
		return nil, err
	}
	return r, nil
}

// emptyRegistry builds a registry over sources with no generation
// installed yet.
func emptyRegistry(sources map[string]ModelSource) (*Registry, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("serve: no models configured")
	}
	r := &Registry{sources: sources}
	empty := map[string]*Model{}
	r.models.Store(&empty)
	return r, nil
}

// Ready reports whether at least one model generation is installed.
func (r *Registry) Ready() bool { return len(*r.models.Load()) > 0 }

// install polls every model source and atomically installs a new
// generation. With force (start-up and POST /v1/models/reload) every
// source fetches unconditionally and every model is decoded afresh;
// without it (a follow poll) each source is checked against its serving
// version, unchanged models keep their loaded predictor (and LoadedAt),
// and a generation is installed only when at least one changed, so a
// no-op poll costs one file read and hash (or one small manifest GET
// against a store) per model and never bumps Reloads(). That is what
// lets napel-serve follow napel-traind's promotion pointer — filesystem
// symlink or HTTP current-lineage endpoint — without reparsing forests
// on every tick.
//
// install returns the installed generation sorted by name, or nil when
// nothing changed, and how long the fetches, hashes and decodes took.
// On any failure the previous generation stays in place and the error
// is returned (wrapping napel.ErrBadModelVersion when the file's format
// version is unsupported, or napel.ErrFeatureLayout when its features
// are not this build's, so HTTP handlers can answer 422).
func (r *Registry) install(force bool) ([]*Model, loadTimes, error) {
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	cur := *r.models.Load()
	next := make(map[string]*Model, len(r.sources))
	var took loadTimes
	changed := false
	for name, src := range r.sources {
		prev := ""
		if old, ok := cur[name]; ok && !force {
			prev = old.Version
		}
		t0 := time.Now()
		data, version, chg, err := src.Poll(prev)
		if err != nil {
			return nil, took, fmt.Errorf("serve: model %q: %w", name, err)
		}
		took.fetch += time.Since(t0)
		if !chg {
			if prev == "" {
				// Poll("") must fetch; a source reporting "unchanged"
				// against no version is treated as a failed poll rather
				// than silently serving no model.
				return nil, took, fmt.Errorf("serve: model %q: source reported no change against no version", name)
			}
			next[name] = cur[name]
			continue
		}
		m, err := modelFromBytes(name, src.Describe(), data, version, &took)
		if err != nil {
			return nil, took, fmt.Errorf("serve: model %q: %w", name, err)
		}
		next[name] = m
		changed = true
	}
	if !changed {
		return nil, took, nil
	}
	r.models.Store(&next)
	r.reloads.Add(1)
	return sortedModels(next), took, nil
}

// loadTimes sums, over one generation's models, how long their fetches,
// the content hashes the registry ran and their decodes took. A hash
// runs beside its decode, so the two overlap.
type loadTimes struct {
	fetch, hash, decode time.Duration
	hashed              bool // whether the registry hashed any model
}

// modelFromBytes parses one model generation out of its serialized
// bytes, adding how long it took to took. path is the source's
// Describe() string — purely descriptive. An empty version is the
// bytes' content version, hashed on a goroutine while the model decodes.
func modelFromBytes(name, path string, data []byte, version string, took *loadTimes) (*Model, error) {
	type hash struct {
		version string
		took    time.Duration
	}
	var hashed chan hash
	if version == "" {
		hashed = make(chan hash, 1)
		go func() {
			t0 := time.Now()
			v := ContentVersion(data)
			hashed <- hash{v, time.Since(t0)}
		}()
	}
	t0 := time.Now()
	pred, err := napel.LoadPredictor(data)
	took.decode += time.Since(t0)
	if hashed != nil {
		h := <-hashed
		version = h.version
		took.hash += h.took
		took.hashed = true
	}
	if err != nil {
		return nil, err
	}
	return &Model{
		Name:      name,
		Path:      path,
		Version:   version,
		LoadedAt:  time.Now(),
		Predictor: pred,
	}, nil
}

// Get returns the named model; an empty name resolves to
// DefaultModelName, or to the only model when exactly one is loaded.
func (r *Registry) Get(name string) (*Model, bool) {
	models := *r.models.Load()
	if name == "" {
		if m, ok := models[DefaultModelName]; ok {
			return m, true
		}
		if len(models) == 1 {
			for _, m := range models {
				return m, true
			}
		}
		return nil, false
	}
	m, ok := models[name]
	return m, ok
}

// List returns the current generation sorted by name.
func (r *Registry) List() []*Model {
	return sortedModels(*r.models.Load())
}

// Reloads returns how many generations have been installed (the initial
// load counts as one).
func (r *Registry) Reloads() uint64 { return r.reloads.Load() }

func sortedModels(m map[string]*Model) []*Model {
	out := make([]*Model, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
