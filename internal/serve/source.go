package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"napel/internal/obs"
)

// ModelSource supplies one model's serialized bytes plus a serving
// version. The registry is source-agnostic: a local file written by
// `napel train` and a blob pulled from napel-traind's model store over
// HTTP install identically, and -follow polls whichever kind is
// configured. The serving version is always the FNV-64a content hash of
// the bytes — the same identity a filesystem registry computes — so a
// prediction carries the same model_version no matter which transport
// delivered the weights (loadgen's prober depends on this).
type ModelSource interface {
	// Describe identifies the source in errors and the /v1/models
	// listing: a file path or a store URL.
	Describe() string
	// Load fetches the current model bytes unconditionally, with their
	// serving version, or with "" to leave hashing the bytes to the
	// registry, which then does so beside the decode.
	Load() (data []byte, version string, err error)
	// Poll re-checks the source against the installed version,
	// returning bytes only when the content changed. An unchanged poll
	// must be cheap — it runs on every follow tick.
	Poll(prevVersion string) (data []byte, version string, changed bool, err error)
}

// ErrCorruptModelPull is returned when bytes pulled from a model store
// fail sha256 verification against their content address — the
// over-the-wire analogue of lifecycle.ErrCorruptBlob. The pull is
// rejected before parsing and the registry keeps serving the last-good
// generation.
var ErrCorruptModelPull = errors.New("serve: pulled model blob corrupt")

// ContentVersion is the serving identity of a model: FNV-64a over the
// serialized bytes, formatted as 16 hex digits. Responses carry it as
// model_version.
func ContentVersion(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// FileSource reads a model from a local file — the original registry
// behavior, including following a path whose target is atomically
// flipped by an external publisher.
type FileSource struct {
	Path string
}

func (f *FileSource) Describe() string { return f.Path }

// Load reads the file and leaves its version to the registry.
func (f *FileSource) Load() ([]byte, string, error) {
	data, err := os.ReadFile(f.Path)
	return data, "", err
}

// Poll hashes the file before anything decodes it, so an unchanged file
// costs a read and a hash.
func (f *FileSource) Poll(prev string) ([]byte, string, bool, error) {
	data, err := os.ReadFile(f.Path)
	if err != nil {
		return nil, "", false, err
	}
	version := ContentVersion(data)
	if version == prev {
		return nil, prev, false, nil
	}
	return data, version, true, nil
}

// maxBlobBytes bounds one pulled model blob (64 MiB — far above any
// forest this repo trains, low enough to bound a misbehaving store).
const maxBlobBytes = 64 << 20

// StoreSource pulls a model from napel-traind's content-addressed store
// over HTTP: GET /v1/store/current names the promoted blob, GET
// /v1/store/blobs/{hash} serves its bytes, and the client re-hashes
// what it received against the content address before parsing. A
// mismatch (torn write, truncated response, bit rot in transit) is
// ErrCorruptModelPull and the last-good generation keeps serving —
// Store.ReadModel's quarantine semantics carried over the wire.
type StoreSource struct {
	// URL is the store's base URL, e.g. http://127.0.0.1:9091 (the
	// napel-traind admin address).
	URL string
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
	// Trace, when set, records every pull as a "store.pull" root span
	// whose identity is propagated to traind, so a model distribution is
	// one cross-process trace. serve.New wires the server's tracer in
	// automatically.
	Trace *obs.Tracer

	mu sync.Mutex
	// contentHash/version memoize the last verified pull so an
	// unchanged poll costs one small manifest GET, not a blob transfer.
	contentHash string
	version     string
}

func (s *StoreSource) Describe() string { return strings.TrimSuffix(s.URL, "/") + "/v1/store" }

func (s *StoreSource) client() *http.Client {
	if s.Client != nil {
		return s.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (s *StoreSource) Load() ([]byte, string, error) {
	hash, err := s.currentHash()
	if err != nil {
		return nil, "", err
	}
	return s.fetch(hash)
}

func (s *StoreSource) Poll(prev string) ([]byte, string, bool, error) {
	hash, err := s.currentHash()
	if err != nil {
		return nil, "", false, err
	}
	s.mu.Lock()
	memoHash, memoVersion := s.contentHash, s.version
	s.mu.Unlock()
	if prev != "" && hash == memoHash && memoVersion == prev {
		return nil, prev, false, nil
	}
	data, version, err := s.fetch(hash)
	if err != nil {
		return nil, "", false, err
	}
	if version == prev {
		return nil, prev, false, nil
	}
	return data, version, true, nil
}

// get issues one traced store GET: the request carries the span's
// identity so traind's server spans join the pull's trace.
func (s *StoreSource) get(name, url string) (*http.Response, *obs.Span, error) {
	ctx, span := obs.StartSpan(obs.WithTracer(context.Background(), s.Trace), name)
	span.SetAttr("url", url)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		span.SetError(err)
		span.End()
		return nil, nil, err
	}
	obs.InjectHTTP(ctx, req)
	resp, err := s.client().Do(req)
	if err != nil {
		span.SetError(err)
		span.End()
		return nil, nil, err
	}
	return resp, span, nil
}

// currentHash resolves the store's promoted lineage to a blob address.
func (s *StoreSource) currentHash() (string, error) {
	resp, span, err := s.get("store.pull.current", strings.TrimSuffix(s.URL, "/")+"/v1/store/current")
	if err != nil {
		return "", err
	}
	defer span.End()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", storeHTTPError(resp, "current lineage")
	}
	var cur struct {
		ID        string `json:"id"`
		ModelHash string `json:"model_hash"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&cur); err != nil {
		return "", fmt.Errorf("serve: decoding store current: %w", err)
	}
	if cur.ModelHash == "" {
		return "", fmt.Errorf("serve: store current lineage names no model blob")
	}
	return cur.ModelHash, nil
}

// fetch pulls and verifies one blob, memoizing the (content address,
// serving version) pair on success.
func (s *StoreSource) fetch(hash string) ([]byte, string, error) {
	resp, span, err := s.get("store.pull.blob", strings.TrimSuffix(s.URL, "/")+"/v1/store/blobs/"+hash)
	if err != nil {
		return nil, "", err
	}
	defer span.End()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", storeHTTPError(resp, "blob "+hash)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes+1))
	if err != nil {
		return nil, "", fmt.Errorf("serve: reading blob %s: %w", hash, err)
	}
	if len(data) > maxBlobBytes {
		return nil, "", fmt.Errorf("serve: blob %s exceeds %d bytes", hash, maxBlobBytes)
	}
	sum := sha256.Sum256(data)
	if got := "sha256-" + hex.EncodeToString(sum[:]); got != hash {
		return nil, "", fmt.Errorf("%w: %s read back as %s from %s", ErrCorruptModelPull, hash, got, s.Describe())
	}
	version := ContentVersion(data)
	s.mu.Lock()
	s.contentHash, s.version = hash, version
	s.mu.Unlock()
	return data, version, nil
}

func storeHTTPError(resp *http.Response, what string) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		msg = http.StatusText(resp.StatusCode)
	}
	return fmt.Errorf("serve: store %s: HTTP %d: %s", what, resp.StatusCode, msg)
}
