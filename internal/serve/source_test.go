package serve

import (
	"errors"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"napel/internal/lifecycle"
	"napel/internal/resilience/faultpoint"
)

// storeFixture publishes the fixture's model A into a real lifecycle
// store served over HTTP, returning the store plus a promote helper.
func storeFixture(t *testing.T, modelPath string) (*lifecycle.Store, *httptest.Server, func(path string) string) {
	t.Helper()
	st, err := lifecycle.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(lifecycle.NewStoreHandler(st))
	t.Cleanup(srv.Close)
	promote := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		hash, err := st.PutModel(data)
		if err != nil {
			t.Fatal(err)
		}
		m := &lifecycle.Manifest{ModelHash: hash}
		if err := st.PutManifest(m); err != nil {
			t.Fatal(err)
		}
		if err := st.Promote(m.ID); err != nil {
			t.Fatal(err)
		}
		return hash
	}
	if modelPath != "" {
		promote(modelPath)
	}
	return st, srv, promote
}

func fileVersion(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return ContentVersion(data)
}

// TestFileVersionHashedBesideDecode: a file-backed registry hashes the
// bytes while they decode, at start-up and on reload, and still serves
// their content version, the one a follow poll computes before decode.
func TestFileVersionHashedBesideDecode(t *testing.T) {
	f := fixture(t)
	reg, err := NewRegistry(map[string]string{DefaultModelName: f.modelA})
	if err != nil {
		t.Fatal(err)
	}
	want := fileVersion(t, f.modelA)
	if m, _ := reg.Get(""); m.Version != want {
		t.Fatalf("start-up version %s, want %s", m.Version, want)
	}
	models, err := reg.Reload()
	if err != nil || len(models) != 1 || models[0].Version != want {
		t.Fatalf("reload: %v, %v; want version %s", models, err, want)
	}
	if _, version, changed, err := (&FileSource{Path: f.modelA}).Poll(want); err != nil || changed || version != want {
		t.Fatalf("poll of the same file: version %s changed=%v err=%v", version, changed, err)
	}
}

// TestStoreSourceServingIdentity: a store-backed registry must serve
// the same model_version a file-backed one computes for the same bytes
// — the identity loadgen's prober (and the gate's ring key) relies on.
func TestStoreSourceServingIdentity(t *testing.T) {
	f := fixture(t)
	_, srv, _ := storeFixture(t, f.modelA)

	reg, err := NewRegistrySources(map[string]ModelSource{
		DefaultModelName: &StoreSource{URL: srv.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := reg.Get("")
	if !ok {
		t.Fatal("no default model after store pull")
	}
	if want := fileVersion(t, f.modelA); m.Version != want {
		t.Fatalf("store-pulled version %s, want file content version %s", m.Version, want)
	}
	if m.Predictor == nil {
		t.Fatal("predictor not parsed from pulled bytes")
	}
}

// TestStoreSourceFollowsPromotion: polling is cheap when nothing
// changed (same predictor pointer, no reload counted) and installs the
// new lineage exactly when the store promotes one.
func TestStoreSourceFollowsPromotion(t *testing.T) {
	f := fixture(t)
	_, srv, promote := storeFixture(t, f.modelA)

	reg, err := NewRegistrySources(map[string]ModelSource{
		DefaultModelName: &StoreSource{URL: srv.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := reg.Get("")
	reloads := reg.Reloads()

	changed, err := reg.ReloadIfChanged()
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("no-op poll reported a change")
	}
	after, _ := reg.Get("")
	if after != before {
		t.Fatal("no-op poll replaced the model")
	}
	if reg.Reloads() != reloads {
		t.Fatal("no-op poll bumped Reloads")
	}

	promote(f.modelB)
	changed, err = reg.ReloadIfChanged()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("promotion not picked up")
	}
	cur, _ := reg.Get("")
	if want := fileVersion(t, f.modelB); cur.Version != want {
		t.Fatalf("after promotion version %s, want %s", cur.Version, want)
	}
}

// TestStoreSourceRejectsTornPull arms the store.blob partial-write
// fault so the wire delivers a truncated blob: the pull must fail with
// ErrCorruptModelPull and the registry must keep serving last-good.
func TestStoreSourceRejectsTornPull(t *testing.T) {
	f := fixture(t)
	_, srv, promote := storeFixture(t, f.modelA)

	reg, err := NewRegistrySources(map[string]ModelSource{
		DefaultModelName: &StoreSource{URL: srv.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	goodVersion := fileVersion(t, f.modelA)

	// A new lineage is promoted, but every blob transfer tears.
	promote(f.modelB)
	if err := faultpoint.Enable(1, "store.blob:1:partial"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Disable()

	_, err = reg.ReloadIfChanged()
	if !errors.Is(err, ErrCorruptModelPull) {
		t.Fatalf("torn pull error = %v, want ErrCorruptModelPull", err)
	}
	cur, ok := reg.Get("")
	if !ok || cur.Version != goodVersion {
		t.Fatalf("after torn pull serving %v, want last-good %s", cur, goodVersion)
	}

	// Once the wire heals, the same poll installs the promoted lineage.
	faultpoint.Disable()
	changed, err := reg.ReloadIfChanged()
	if err != nil || !changed {
		t.Fatalf("post-heal poll: changed=%v err=%v", changed, err)
	}
	cur, _ = reg.Get("")
	if want := fileVersion(t, f.modelB); cur.Version != want {
		t.Fatalf("post-heal version %s, want %s", cur.Version, want)
	}
}

// TestStoreSourceLazyStart: a server configured against an empty store
// comes up unready and turns ready on the first promotion — the shape
// verify.sh's fleet smoke boots replicas in.
func TestStoreSourceLazyStart(t *testing.T) {
	f := fixture(t)
	_, srv, promote := storeFixture(t, "")

	s, err := New(Config{
		ModelSources: map[string]ModelSource{
			DefaultModelName: &StoreSource{URL: srv.URL},
		},
		LazyLoad:       true,
		FollowInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Ready() {
		t.Fatal("ready before any promotion")
	}
	promote(f.modelA)
	deadline := time.Now().Add(5 * time.Second)
	for !s.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("never became ready after promotion")
		}
		if _, err := s.registry.ReloadIfChanged(); err != nil {
			t.Fatalf("reload: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	m, _ := s.registry.Get("")
	if want := fileVersion(t, f.modelA); m.Version != want {
		t.Fatalf("lazy install version %s, want %s", m.Version, want)
	}
}
