package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"napel/internal/napel"
	"napel/internal/serve"
	kernels "napel/internal/workload"
)

// prepared is the benchmark's fixed input: two models trained on the
// paper-shaped data set and the atax request every hot variant reuses.
type prepared struct {
	pathA, pathB       string
	modelA, modelB     []byte
	versionA, versionB string
	base               serve.PredictRequest
}

// prepare trains models A and B into dir unless an earlier run already
// did: training is set-up, not a metric. bench/run.sh names dir after a
// hash of the training code and of this file's settings, so a change to
// either trains into a new entry and leaves the others in place (both
// sides of a comparison stay cached). The settings are those of
//
//	napel train -train-scale 32 -train-sim-budget 20000 -train-profile-budget 20000 [-seed 42|43]
//	napel export-profile -kernel atax -scale 32 -max-iters 1 -budget 20000
func prepare(dir string) (*prepared, error) {
	p := &prepared{pathA: filepath.Join(dir, "modelA.json"), pathB: filepath.Join(dir, "modelB.json")}
	if _, err := os.Stat(p.pathB); errors.Is(err, fs.ErrNotExist) {
		if err := train(dir, p.pathA, p.pathB); err != nil {
			return nil, err
		}
	}
	var err error
	if p.modelA, err = os.ReadFile(p.pathA); err != nil {
		return nil, err
	}
	if p.modelB, err = os.ReadFile(p.pathB); err != nil {
		return nil, err
	}

	k, err := kernels.ByName("atax")
	if err != nil {
		return nil, err
	}
	in := kernels.Scale(k, kernels.TestInput(k), 32, 1)
	if err := kernels.Validate(k, in); err != nil {
		return nil, err
	}
	prof, err := napel.ProfileKernel(k, in, 20000)
	if err != nil {
		return nil, err
	}
	p.base = serve.PredictRequest{Profile: serve.NewWireProfile(prof), Threads: in.Threads()}
	return p, nil
}

// train collects the 12-kernel data set and writes both models; model B
// is written last, so its presence marks a complete cache entry.
func train(dir, pathA, pathB string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	opts := napel.DefaultOptions()
	opts.ScaleFactor = 32
	opts.SimBudget = 20000
	opts.ProfileBudget = 20000
	td, err := napel.Collect(kernels.All(), opts)
	if err != nil {
		return fmt.Errorf("collecting training data: %w", err)
	}
	for _, m := range []struct {
		path string
		seed uint64
	}{{pathA, 42}, {pathB, 43}} {
		pred, err := napel.Train(td, m.seed)
		if err != nil {
			return err
		}
		if err := napel.WritePredictorFile(m.path, pred); err != nil {
			return err
		}
	}
	return nil
}
