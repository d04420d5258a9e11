package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"napel/internal/napel"
	"napel/internal/obs"
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
	reloadMu       sync.Mutex
	models         atomic.Pointer[map[string]*Model]
	reloads        atomic.Uint64
	followFailures atomic.Uint64

	// loadFetch, loadHash and loadDecode, when set, time each
	// installed generation's source reads, the content hashes the
	// registry runs beside the decodes, and the decodes.
	loadFetch, loadHash, loadDecode *obs.Histogram
}

// NewRegistry builds a registry over the given name→file-path mapping
// and performs the initial load; it fails if any model cannot be
// loaded.
func NewRegistry(paths map[string]string) (*Registry, error) {
	return newRegistry(paths, false)
}

func newRegistry(paths map[string]string, lazy bool) (*Registry, error) {
	sources := make(map[string]ModelSource, len(paths))
	for name, path := range paths {
		sources[name] = &FileSource{Path: path}
	}
	return newRegistrySources(sources, lazy, nil, nil, nil)
}

// NewRegistrySources builds a registry over arbitrary model sources
// (mixing file- and store-backed entries is fine) and performs the
// initial load.
func NewRegistrySources(sources map[string]ModelSource) (*Registry, error) {
	return newRegistrySources(sources, false, nil, nil, nil)
}

// newRegistrySources builds a registry whose installs, the initial load
// included, are timed into loadFetch, loadHash and loadDecode when they
// are set.
func newRegistrySources(sources map[string]ModelSource, lazy bool, loadFetch, loadHash, loadDecode *obs.Histogram) (*Registry, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("serve: no models configured")
	}
	r := &Registry{sources: sources, loadFetch: loadFetch, loadHash: loadHash, loadDecode: loadDecode}
	empty := map[string]*Model{}
	r.models.Store(&empty)
	if _, err := r.Reload(); err != nil {
		// Lazy mode tolerates an empty start: the file may not exist yet,
		// or the store may have no promoted lineage (napel-traind has not
		// promoted a first model). Ready() stays false and /readyz
		// answers 503 until a follow poll or explicit reload installs the
		// first generation.
		if !lazy {
			return nil, err
		}
	}
	return r, nil
}

// Ready reports whether at least one model generation is installed.
func (r *Registry) Ready() bool { return len(*r.models.Load()) > 0 }

// Reload re-fetches every configured model source and atomically
// replaces the serving set with the new generation. On any failure the
// previous generation stays in place and the error is returned
// (wrapping napel.ErrBadModelVersion when the file's format version is
// unsupported, or napel.ErrFeatureLayout when its features are not this
// build's, so HTTP handlers can answer 422).
func (r *Registry) Reload() ([]*Model, error) {
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	next := make(map[string]*Model, len(r.sources))
	var took loadTimes
	for name, src := range r.sources {
		t0 := time.Now()
		data, version, err := src.Load()
		if err != nil {
			return nil, fmt.Errorf("serve: model %q: %w", name, err)
		}
		took.fetch += time.Since(t0)
		m, err := modelFromBytes(name, src.Describe(), data, version, &took)
		if err != nil {
			return nil, fmt.Errorf("serve: model %q: %w", name, err)
		}
		next[name] = m
	}
	r.models.Store(&next)
	r.reloads.Add(1)
	r.observeLoad(took)
	return sortedModels(next), nil
}

// loadTimes sums, over one generation's models, how long their fetches,
// the content hashes the registry ran and their decodes took. A hash
// runs beside its decode, so the two overlap.
type loadTimes struct {
	fetch, hash, decode time.Duration
	hashed              bool // whether the registry hashed any model
}

// observeLoad records how long an installed generation took to fetch
// and to decode, and to hash if the registry hashed it.
func (r *Registry) observeLoad(took loadTimes) {
	if r.loadFetch != nil {
		r.loadFetch.Observe(took.fetch.Seconds())
		r.loadDecode.Observe(took.decode.Seconds())
		if took.hashed {
			r.loadHash.Observe(took.hash.Seconds())
		}
	}
}

// ReloadIfChanged is the polling variant of Reload: it polls every
// model source but installs a new generation only when at least one
// source's content changed versus the serving version. Unchanged models
// keep their loaded predictor (and LoadedAt), so a no-op poll costs one
// file read (or one small manifest GET against a store) per model and
// never bumps Reloads(). This is what lets the registry follow
// napel-traind's promotion pointer — filesystem symlink or HTTP
// current-lineage endpoint — without reparsing forests on every tick.
func (r *Registry) ReloadIfChanged() (changed bool, err error) {
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	cur := *r.models.Load()
	next := make(map[string]*Model, len(r.sources))
	var took loadTimes
	for name, src := range r.sources {
		prev := ""
		old, installed := cur[name]
		if installed {
			prev = old.Version
		}
		t0 := time.Now()
		data, version, chg, err := src.Poll(prev)
		if err != nil {
			return false, fmt.Errorf("serve: model %q: %w", name, err)
		}
		took.fetch += time.Since(t0)
		if !chg {
			if !installed {
				// A source cannot report "unchanged" against nothing
				// installed; treat it as a failed poll rather than
				// silently serving no model.
				return false, fmt.Errorf("serve: model %q: source reported no change with no generation installed", name)
			}
			next[name] = old
			continue
		}
		m, err := modelFromBytes(name, src.Describe(), data, version, &took)
		if err != nil {
			return false, fmt.Errorf("serve: model %q: %w", name, err)
		}
		next[name] = m
		changed = true
	}
	if !changed {
		return false, nil
	}
	r.models.Store(&next)
	r.reloads.Add(1)
	r.observeLoad(took)
	return true, nil
}

// FollowFailures returns how many follow polls have failed since start.
func (r *Registry) FollowFailures() uint64 { return r.followFailures.Load() }

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
