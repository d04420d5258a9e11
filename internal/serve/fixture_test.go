package serve

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"napel/internal/napel"
	"napel/internal/pisa"
	"napel/internal/workload"
)

// The fixture trains two small predictors (different seeds, so
// different weights) on one kernel and profiles a test input — shared
// across all tests because DoE collection dominates test time.
type fixtureData struct {
	dir     string
	modelA  string // saved predictor, seed 42
	modelB  string // saved predictor, seed 7 (for reload tests)
	predA   *napel.Predictor
	prof    *pisa.Profile
	threads int
	err     error
}

var (
	fixtureOnce sync.Once
	fixtureVal  fixtureData
)

// TestMain removes the fixture's model directory once every test has
// run, so a test run leaves nothing in the temporary directory.
func TestMain(m *testing.M) {
	code := m.Run()
	if fixtureVal.dir != "" {
		os.RemoveAll(fixtureVal.dir)
	}
	os.Exit(code)
}

func fixture(t testing.TB) *fixtureData {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureVal = buildFixture()
	})
	if fixtureVal.err != nil {
		t.Fatalf("building fixture: %v", fixtureVal.err)
	}
	return &fixtureVal
}

func buildFixture() fixtureData {
	var f fixtureData
	opts := napel.DefaultOptions()
	opts.ScaleFactor = 32
	opts.MaxIters = 1
	opts.TestScaleFactor = 16
	opts.TestMaxIters = 1
	opts.ProfileBudget = 30_000
	opts.SimBudget = 30_000
	opts.TrainArchs = opts.TrainArchs[:2]

	k, err := workload.ByName("atax")
	if err != nil {
		f.err = err
		return f
	}
	td, err := napel.Collect([]workload.Kernel{k}, opts)
	if err != nil {
		f.err = err
		return f
	}
	predA, err := napel.Train(td, 42)
	if err != nil {
		f.err = err
		return f
	}
	predB, err := napel.Train(td, 7)
	if err != nil {
		f.err = err
		return f
	}

	f.dir, err = os.MkdirTemp("", "napel-serve-test")
	if err != nil {
		f.err = err
		return f
	}
	f.modelA = filepath.Join(f.dir, "model-a.json")
	f.modelB = filepath.Join(f.dir, "model-b.json")
	if f.err = saveModel(predA, f.modelA); f.err != nil {
		return f
	}
	if f.err = saveModel(predB, f.modelB); f.err != nil {
		return f
	}

	in := workload.Scale(k, workload.TestInput(k), opts.TestScaleFactor, opts.TestMaxIters)
	prof, err := napel.ProfileKernel(k, in, opts.ProfileBudget)
	if err != nil {
		f.err = err
		return f
	}
	f.predA = predA
	f.prof = prof
	f.threads = in.Threads()
	return f
}

func saveModel(p *napel.Predictor, path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := p.Save(out); err != nil {
		return err
	}
	return out.Close()
}

// newTestServer builds a server over a copy of model A so tests that
// rewrite or corrupt the model file cannot interfere with each other.
func newTestServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	f := fixture(t)
	modelPath := filepath.Join(t.TempDir(), "model.json")
	data, err := os.ReadFile(f.modelA)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(modelPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if cfg.ModelPaths == nil {
		cfg.ModelPaths = map[string]string{DefaultModelName: modelPath}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, modelPath
}
