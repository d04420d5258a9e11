package napel

import (
	"bytes"
	"sync"
	"testing"

	"napel/internal/nmcsim"
	"napel/internal/workload"
)

// TestPredictorConcurrentPredict exercises the documented guarantee that
// one loaded Predictor may be shared by many goroutines: 16 workers
// hammer Predict/PredictAssembled on the same model and profile (the
// napel-serve access pattern) and every result must be bit-identical to
// the sequential answer. Run under -race this doubles as the
// thread-safety audit of the prediction path.
func TestPredictorConcurrentPredict(t *testing.T) {
	opts := quickOptions()
	td, err := Collect(quickKernels(t, "atax"), opts)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Train(td, 42)
	if err != nil {
		t.Fatal(err)
	}
	k := quickKernels(t, "atax")[0]
	in := workload.Scale(k, workload.TestInput(k), opts.TestScaleFactor, opts.TestMaxIters)
	prof, err := ProfileKernel(k, in, opts.ProfileBudget)
	if err != nil {
		t.Fatal(err)
	}

	// Several distinct architecture points so goroutines are not all on
	// one code path through the trees.
	cfgs := []nmcsim.Config{opts.RefArch}
	small := opts.RefArch
	small.PEs = 8
	small.FreqGHz = 0.8
	big := opts.RefArch
	big.PEs = 64
	big.L1.Lines = 64
	big.L1.Assoc = 4
	cfgs = append(cfgs, small, big)

	want := make([]Prediction, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = pred.Predict(prof, cfg, in.Threads())
	}

	const goroutines = 16
	const iters = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ci := (g + i) % len(cfgs)
				got := pred.Predict(prof, cfgs[ci], in.Threads())
				if got != want[ci] {
					t.Errorf("goroutine %d: prediction diverged:\ngot  %+v\nwant %+v", g, got, want[ci])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPredictAssembledMatchesPredict pins the refactor invariant: the
// assembled-vector path (the server's) and the profile path (the CLI's)
// are the same computation.
func TestPredictAssembledMatchesPredict(t *testing.T) {
	opts := quickOptions()
	td, err := Collect(quickKernels(t, "atax"), opts)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Train(td, 7)
	if err != nil {
		t.Fatal(err)
	}
	k := quickKernels(t, "atax")[0]
	in := workload.Scale(k, workload.TestInput(k), opts.TestScaleFactor, opts.TestMaxIters)
	prof, err := ProfileKernel(k, in, opts.ProfileBudget)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.RefArch
	threads := in.Threads()

	feat := append(append([]float64(nil), prof.Vector()...), ArchVector(cfg, prof, threads)...)
	got := pred.PredictAssembled(feat, prof.TotalInstrs(), cfg, threads)
	want := pred.Predict(prof, cfg, threads)
	if got != want {
		t.Fatalf("PredictAssembled diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestArchVectorFromCurve checks that the wire-format hit curve
// reproduces ArchVector bit-for-bit across cache geometries, including
// capacities beyond the reuse histogram range.
func TestArchVectorFromCurve(t *testing.T) {
	k := quickKernels(t, "mvt")[0]
	prof, err := ProfileKernel(k, workload.Scale(k, workload.TestInput(k), 32, 1), 30_000)
	if err != nil {
		t.Fatal(err)
	}
	curve := prof.HitFractionCurve()

	cfgs := []nmcsim.Config{nmcsim.DefaultConfig()}
	big := nmcsim.DefaultConfig()
	big.L1.Lines = 4096
	big.L1.Assoc = 4
	tiny := nmcsim.DefaultConfig()
	tiny.L1.Lines = 1
	tiny.L1.Assoc = 1
	huge := nmcsim.DefaultConfig()
	huge.L1.LineSize = 256
	huge.L1.Lines = 1 << 25 // eqLines beyond the curve: must clamp
	huge.L1.Assoc = 1
	ooo := nmcsim.OoOConfig()
	cfgs = append(cfgs, big, tiny, huge, ooo)

	for _, cfg := range cfgs {
		for _, threads := range []int{1, 32} {
			want := ArchVector(cfg, prof, threads)
			got, err := ArchVectorFromCurve(cfg, curve, threads)
			if err != nil {
				t.Fatalf("cfg %+v: %v", cfg.L1, err)
			}
			if len(got) != len(want) {
				t.Fatalf("length %d, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("cfg L1=%+v threads=%d: feature %d = %g, want %g",
						cfg.L1, threads, i, got[i], want[i])
				}
			}
		}
	}

	if _, err := ArchVectorFromCurve(nmcsim.DefaultConfig(), nil, 1); err == nil {
		t.Fatal("empty curve accepted")
	}
	if _, err := ArchVectorFromCurve(nmcsim.DefaultConfig(), []float64{2.5}, 1); err == nil {
		t.Fatal("out-of-range hit fraction accepted")
	}
}

// TestLoadPredictorConcurrent loads one model file from 8 goroutines at
// once. Each load reads its trees on goroutines of its own over the
// shared bytes, and every loaded predictor must save back to exactly
// the file. Run under -race it checks that loads share nothing but the
// bytes they read.
func TestLoadPredictorConcurrent(t *testing.T) {
	data := savedBytes(t, synthPredictor(t, 12, 40))
	saved := make([][]byte, 8)
	errs := make([]error, len(saved))
	var wg sync.WaitGroup
	for i := range saved {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := LoadPredictor(data)
			if err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			errs[i] = p.Save(&buf)
			saved[i] = buf.Bytes()
		}()
	}
	wg.Wait()
	for i := range saved {
		if errs[i] != nil {
			t.Fatalf("load %d: %v", i, errs[i])
		}
		if !bytes.Equal(saved[i], data) {
			t.Fatalf("load %d saves to different bytes than the file it loaded", i)
		}
	}
}
