package collectd

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"napel/internal/napel"
	"napel/internal/resilience/faultpoint"
	"napel/internal/trace"
	"napel/internal/workload"
)

func runActive(t *testing.T, cfg ActiveConfig) (*napel.TrainingData, *ActiveReport) {
	t.Helper()
	kernels := quickKernels(t, "atax")
	opts := quickOptions()
	opts.Workers = 4
	td, report, err := ActiveCollect(context.Background(), kernels, opts, cfg)
	if err != nil {
		t.Fatalf("active collect: %v", err)
	}
	return td, report
}

// TestActiveSelectionDeterministic pins the scheduler's core contract:
// the full selection sequence — seed design and every uncertainty-ranked
// round — is a pure function of the seed.
func TestActiveSelectionDeterministic(t *testing.T) {
	cfg := ActiveConfig{Seed: 42, SeedUnits: 2, RoundUnits: 1}
	_, a := runActive(t, cfg)
	_, b := runActive(t, cfg)
	sameRounds(t, a, b)
	if len(a.Rounds[0].Selected) != cfg.SeedUnits {
		t.Fatalf("seed round selected %d units, want %d", len(a.Rounds[0].Selected), cfg.SeedUnits)
	}

	// A different seed must be allowed to choose differently — otherwise
	// the test above proves nothing about where determinism comes from.
	_, c := runActive(t, ActiveConfig{Seed: 43, SeedUnits: 2, RoundUnits: 1})
	same := len(c.Rounds[0].Selected) == len(a.Rounds[0].Selected)
	if same {
		for j := range c.Rounds[0].Selected {
			if c.Rounds[0].Selected[j] != a.Rounds[0].Selected[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Log("seeds 42 and 43 drew identical seed designs (possible on a small pool); not a failure")
	}
}

// TestActiveFullPoolByteIdentical: when the loop runs the pool dry, the
// assembled TrainingData must be byte-identical to serial napel.Collect
// — the active scheduler changes the order labels are acquired, never
// the result.
func TestActiveFullPoolByteIdentical(t *testing.T) {
	kernels := quickKernels(t, "atax")
	opts := quickOptions()

	serial := opts
	serial.Workers = 1
	ref, err := napel.Collect(kernels, serial)
	if err != nil {
		t.Fatalf("serial collect: %v", err)
	}

	td, report := runActive(t, ActiveConfig{Seed: 7, SeedUnits: 3, RoundUnits: 2})
	if report.UnitsSimulated != report.PoolSize {
		t.Fatalf("full-pool run simulated %d of %d units", report.UnitsSimulated, report.PoolSize)
	}
	if !bytes.Equal(digest(t, td), digest(t, ref)) {
		t.Fatal("active full-pool TrainingData differs from serial reference")
	}
}

// TestActiveSampleEfficiency is the acceptance experiment: with a target
// MRE set to what the full pool achieves, the active loop must get there
// with measurably fewer simulated units. The logged numbers feed
// EXPERIMENTS.md.
func TestActiveSampleEfficiency(t *testing.T) {
	kernels := quickKernels(t, "atax", "mvt")
	opts := quickOptions()

	ref, err := napel.Collect(kernels, opts)
	if err != nil {
		t.Fatalf("serial collect: %v", err)
	}
	hm, err := napel.EvaluateHoldout(ref, napel.DefaultRFTrainer(), 0.25, 9)
	if err != nil {
		t.Fatalf("baseline holdout: %v", err)
	}
	baseline := hm.Combined()
	if math.IsNaN(baseline) || baseline <= 0 {
		t.Fatalf("degenerate baseline MRE %v", baseline)
	}

	td, report, err := ActiveCollect(context.Background(), kernels, opts, ActiveConfig{
		Seed:       9,
		SeedUnits:  4,
		RoundUnits: 2,
		TargetMRE:  baseline,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("active collect: %v", err)
	}
	t.Logf("pool=%d baselineMRE=%.4f activeMRE=%.4f units=%d (%.0f%% of pool)",
		report.PoolSize, baseline, report.FinalMRE, report.UnitsSimulated,
		100*float64(report.UnitsSimulated)/float64(report.PoolSize))
	if report.UnitsSimulated >= report.PoolSize {
		t.Fatalf("active loop needed the whole pool (%d units) to reach the full-pool MRE", report.PoolSize)
	}
	if report.FinalMRE > baseline {
		t.Fatalf("stopped at MRE %.4f, above target %.4f", report.FinalMRE, baseline)
	}
	// One unit key can cover several plan occurrences (CCD center
	// replicates), so count distinct units rather than samples.
	keys := map[string]bool{}
	for _, s := range td.Samples {
		keys[napel.UnitKey(s.App, s.Input)] = true
	}
	if len(keys) != report.UnitsSimulated {
		t.Fatalf("assembled %d distinct units, simulated %d", len(keys), report.UnitsSimulated)
	}
}

// sameRounds fails unless two active runs selected the same units and
// scored the same holdout MRE in every round.
func sameRounds(t *testing.T, a, b *ActiveReport) {
	t.Helper()
	if len(a.Rounds) != len(b.Rounds) {
		t.Fatalf("%d rounds vs %d", len(a.Rounds), len(b.Rounds))
	}
	for i, ra := range a.Rounds {
		rb := b.Rounds[i]
		if len(ra.Selected) != len(rb.Selected) {
			t.Fatalf("round %d selected %v vs %v", i, ra.Selected, rb.Selected)
		}
		for j := range ra.Selected {
			if ra.Selected[j] != rb.Selected[j] {
				t.Fatalf("round %d selected %v vs %v", i, ra.Selected, rb.Selected)
			}
		}
		if math.Float64bits(ra.HoldoutMRE) != math.Float64bits(rb.HoldoutMRE) {
			t.Fatalf("round %d holdout MRE %v vs %v", i, ra.HoldoutMRE, rb.HoldoutMRE)
		}
	}
}

// TestActiveThroughExecutorMatchesLocal: active rounds leased to
// workers through opts.Executor run in the same engine as local ones,
// so they select the same units and write the same bytes.
func TestActiveThroughExecutorMatchesLocal(t *testing.T) {
	kernels := quickKernels(t, "atax")
	cfg := ActiveConfig{Seed: 3, SeedUnits: 2, RoundUnits: 2, MaxUnits: 6}
	opts := quickOptions()
	opts.Workers = 3
	localTD, local, err := ActiveCollect(context.Background(), kernels, opts, cfg)
	if err != nil {
		t.Fatalf("local active collect: %v", err)
	}

	c := NewCoordinator(Config{LeaseTTL: 2 * time.Second, Logf: t.Logf})
	startCluster(t, c, 2, 5)
	opts.Executor = c.Executor()
	distTD, dist, err := ActiveCollect(context.Background(), kernels, opts, cfg)
	if err != nil {
		t.Fatalf("active collect through the executor: %v", err)
	}
	sameRounds(t, local, dist)
	if !bytes.Equal(digest(t, distTD), digest(t, localTD)) {
		t.Fatal("active collection through the executor differs from local")
	}
	if st := c.Stats(); st.Completed != uint64(dist.UnitsSimulated) {
		t.Fatalf("coordinator completed %d units, the rounds simulated %d", st.Completed, dist.UnitsSimulated)
	}
}

// TestActiveQuarantineListedOnce: a unit quarantined in any round stays
// in the final dataset's Quarantined, once, with none of its samples,
// and the report counts exactly those units.
func TestActiveQuarantineListedOnce(t *testing.T) {
	kernels := quickKernels(t, "atax", "mvt")
	opts := quickOptions()
	opts.Workers = 1 // the fault stream is drawn in arrival order
	opts.QuarantineFailures = true
	if err := faultpoint.Enable(4, "engine.unit:0.3"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Disable()
	td, report, err := ActiveCollect(context.Background(), kernels, opts,
		ActiveConfig{Seed: 7, SeedUnits: 4, RoundUnits: 2, MaxUnits: 12})
	faultpoint.Disable()
	if err != nil {
		t.Fatalf("active collect: %v", err)
	}
	if report.Quarantined == 0 {
		t.Fatal("the fault plan quarantined nothing; the test proves nothing")
	}
	if report.Quarantined != len(td.Quarantined) {
		t.Fatalf("report counts %d quarantined units, the dataset lists %d", report.Quarantined, len(td.Quarantined))
	}
	selected := map[string]bool{}
	for _, r := range report.Rounds {
		for _, key := range r.Selected {
			selected[key] = true
		}
	}
	sampled := map[string]bool{}
	for _, s := range td.Samples {
		sampled[napel.UnitKey(s.App, s.Input)] = true
	}
	listed := map[string]bool{}
	for _, q := range td.Quarantined {
		key := napel.UnitKey(q.App, q.Input)
		switch {
		case listed[key]:
			t.Fatalf("unit %s listed twice", key)
		case sampled[key]:
			t.Fatalf("quarantined unit %s has samples in the dataset", key)
		case !selected[key]:
			t.Fatalf("quarantined unit %s was never selected", key)
		}
		listed[key] = true
	}
	if len(sampled)+len(listed) != report.UnitsSimulated {
		t.Fatalf("%d units sampled + %d quarantined, %d simulated", len(sampled), len(listed), report.UnitsSimulated)
	}
}

// renamedKernel is a kernel under a name the workload registry does not
// know, as a user-defined kernel would be.
type renamedKernel struct{ workload.Kernel }

func (renamedKernel) Name() string { return "myatax" }

// TestActiveUsesGivenKernels: active collection profiles and simulates
// the kernel objects it is given, so a user-defined kernel collects as
// it does through napel.Collect.
func TestActiveUsesGivenKernels(t *testing.T) {
	kernels := []workload.Kernel{renamedKernel{quickKernels(t, "atax")[0]}}
	opts := quickOptions()
	opts.Workers = 3
	ref, err := napel.Collect(kernels, opts)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	td, report, err := ActiveCollect(context.Background(), kernels, opts, ActiveConfig{Seed: 1, SeedUnits: 3, RoundUnits: 3})
	if err != nil {
		t.Fatalf("active collect over a user-defined kernel: %v", err)
	}
	if report.UnitsSimulated != report.PoolSize {
		t.Fatalf("simulated %d of %d units", report.UnitsSimulated, report.PoolSize)
	}
	if !bytes.Equal(digest(t, td), digest(t, ref)) {
		t.Fatal("active full-pool run over a user-defined kernel differs from Collect")
	}
}

// gatedKernel is atax whose every trace waits for release, counting the
// calls that started and those still running.
type gatedKernel struct {
	workload.Kernel
	entered           chan struct{}
	release           chan struct{}
	started, inFlight *atomic.Int64
}

func (gatedKernel) Name() string { return "gated" }

func (g gatedKernel) Trace(in workload.Input, shard, nshards int, t *trace.Tracer) {
	g.started.Add(1)
	g.inFlight.Add(1)
	defer g.inFlight.Add(-1)
	g.entered <- struct{}{}
	<-g.release
	g.Kernel.Trace(in, shard, nshards, t)
}

// TestActiveCancelStopsProfiling: once the context ends while candidate
// profiles are running, active collection starts no further profile
// and returns only after the running ones finish. Every profile blocks
// until the test releases it, so which profiles had started when the
// context ended is fixed, not a matter of timing.
func TestActiveCancelStopsProfiling(t *testing.T) {
	g := gatedKernel{
		Kernel: quickKernels(t, "atax")[0],
		// A slot per unit of atax's pool (9), so a profile started after
		// the test stops reading never blocks on the send.
		entered:  make(chan struct{}, 9),
		release:  make(chan struct{}),
		started:  new(atomic.Int64),
		inFlight: new(atomic.Int64),
	}
	opts := quickOptions()
	opts.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		err               error
		started, inFlight int64
	}
	done := make(chan result, 1)
	go func() {
		_, _, err := ActiveCollect(ctx, []workload.Kernel{g}, opts, ActiveConfig{Seed: 1})
		done <- result{err, g.started.Load(), g.inFlight.Load()}
	}()
	for i := 0; i < opts.Workers; i++ {
		select {
		case <-g.entered:
		case r := <-done:
			t.Fatalf("active collection returned before profiling: %v", r.err)
		}
	}
	cancel()
	close(g.release)
	r := <-done
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", r.err)
	}
	if r.inFlight != 0 {
		t.Fatalf("returned with %d profiles still running", r.inFlight)
	}
	if r.started != int64(opts.Workers) {
		t.Fatalf("%d profiles started, want the %d running when the context ended", r.started, opts.Workers)
	}
}
