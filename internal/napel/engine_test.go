package napel

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"napel/internal/obs"
	"napel/internal/trace"
	"napel/internal/workload"
)

// TestCollectBitIdenticalAcrossWorkers is the engine's central contract:
// the serialized dataset is byte-for-byte identical no matter how many
// workers collected it.
func TestCollectBitIdenticalAcrossWorkers(t *testing.T) {
	kernels := quickKernels(t, "atax", "mvt")
	var bufs [2]bytes.Buffer
	for i, workers := range []int{1, 8} {
		opts := quickOptions()
		opts.Workers = workers
		td, err := Collect(kernels, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := SaveTrainingData(&bufs[i], td); err != nil {
			t.Fatalf("workers=%d: save: %v", workers, err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("serialized training data differs between workers=1 (%d bytes) and workers=8 (%d bytes)",
			bufs[0].Len(), bufs[1].Len())
	}
	if bufs[0].Len() == 0 {
		t.Fatal("serialized training data is empty")
	}
}

// TestCollectMatchesSerialReference pins the engine's output to the
// pre-engine algorithm: profile each distinct input, then stream a fresh
// simulation per (occurrence, architecture). Every deterministic sample
// field must match exactly.
func TestCollectMatchesSerialReference(t *testing.T) {
	opts := quickOptions()
	opts.Workers = 4
	kernels := quickKernels(t, "atax")
	td, err := Collect(kernels, opts)
	if err != nil {
		t.Fatal(err)
	}

	var want []Sample
	profiles := map[string]bool{}
	k := kernels[0]
	for _, rawIn := range CCDInputs(k) {
		in := workload.Scale(k, rawIn, opts.ScaleFactor, opts.MaxIters)
		key := inputKey(k.Name(), in)
		prof, err := ProfileKernel(k, in, opts.ProfileBudget)
		if err != nil {
			t.Fatal(err)
		}
		profiles[key] = true
		base := prof.Vector()
		for ai, arch := range opts.TrainArchs {
			res, err := SimulateKernel(k, in, arch, opts.SimBudget)
			if err != nil {
				t.Fatal(err)
			}
			feat := append(append([]float64(nil), base...), ArchVector(arch, prof, in.Threads())...)
			want = append(want, Sample{
				App: k.Name(), Input: in, ArchIdx: ai,
				ActivePEs: ActivePEs(in.Threads(), arch.PEs),
				Features:  feat, IPC: res.IPC, EPI: res.EPI,
			})
		}
	}

	if len(td.Samples) != len(want) {
		t.Fatalf("%d samples, want %d", len(td.Samples), len(want))
	}
	for i, s := range td.Samples {
		w := want[i]
		if s.App != w.App || s.Input.String() != w.Input.String() ||
			s.ArchIdx != w.ArchIdx || s.ActivePEs != w.ActivePEs ||
			s.IPC != w.IPC || s.EPI != w.EPI {
			t.Fatalf("sample %d = %+v, want %+v", i, s, w)
		}
		if len(s.Features) != len(w.Features) {
			t.Fatalf("sample %d feature width %d, want %d", i, len(s.Features), len(w.Features))
		}
		for f := range s.Features {
			if s.Features[f] != w.Features[f] {
				t.Fatalf("sample %d feature %d = %v, want %v", i, f, s.Features[f], w.Features[f])
			}
		}
	}
	if len(td.Profiles) != len(profiles) {
		t.Fatalf("%d profiles, want %d", len(td.Profiles), len(profiles))
	}
	for key := range profiles {
		if td.Profiles[key] == nil {
			t.Fatalf("missing profile for %s", key)
		}
	}
}

// countingKernel counts Trace invocations — the instrument behind the
// exactly-once guarantee.
type countingKernel struct {
	execs *atomic.Int64
}

func (countingKernel) Name() string        { return "counting" }
func (countingKernel) Description() string { return "test kernel counting trace executions" }

func (countingKernel) Params() []workload.Param {
	return []workload.Param{
		{Name: "size", Kind: workload.KindSize, Levels: [5]int{64, 128, 256, 512, 1024}, Test: 256},
		{Name: "threads", Kind: workload.KindThreads, Levels: [5]int{1, 2, 4, 8, 16}, Test: 4},
	}
}

func (c countingKernel) Trace(in workload.Input, shard, nshards int, t *trace.Tracer) {
	c.execs.Add(1)
	n := in["size"]
	base := uint64(1<<20) + uint64(shard)<<16
	for i := 0; i < n; i += 8 {
		if t.Stop() {
			t.SetCoverage(i, n)
			return
		}
		for j := 0; j < 8; j++ {
			t.Load(0, base+uint64(i+j)*8, 8, 1, 2)
			t.Int(1, 3, 1, 2)
		}
	}
}

// TestCollectTraceExactlyOnce asserts the single-pass saving: per
// distinct (kernel, input) unit the kernel's trace generator runs
// exactly 1+threads times (one profiling pass, one recording per shard)
// — independent of how many architectures are trained on.
func TestCollectTraceExactlyOnce(t *testing.T) {
	base := quickOptions()
	for _, archs := range []int{1, len(base.TrainArchs)} {
		var execs atomic.Int64
		k := countingKernel{execs: &execs}
		opts := base
		opts.TrainArchs = base.TrainArchs[:archs]
		opts.Workers = 4

		// The expected count is a property of the deduplicated unit set,
		// not of the architecture list.
		want := int64(0)
		seen := map[string]bool{}
		for _, rawIn := range CCDInputs(k) {
			in := workload.Scale(k, rawIn, opts.ScaleFactor, opts.MaxIters)
			key := inputKey(k.Name(), in)
			if seen[key] {
				continue
			}
			seen[key] = true
			want += int64(1 + in.Threads())
		}

		td, err := Collect([]workload.Kernel{k}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := execs.Load(); got != want {
			t.Fatalf("archs=%d: kernel traced %d times, want %d (1+threads per distinct unit)", archs, got, want)
		}
		if wantSamples := len(CCDInputs(k)) * archs; len(td.Samples) != wantSamples {
			t.Fatalf("archs=%d: %d samples, want %d", archs, len(td.Samples), wantSamples)
		}
	}
}

// TestCollectResumeSkipsRestoredUnits is the crash-recovery contract:
// seeding the engine with a partial checkpoint re-executes only the
// unfinished units, and the assembled dataset serializes byte-identically
// to an uninterrupted run.
func TestCollectResumeSkipsRestoredUnits(t *testing.T) {
	opts := quickOptions()
	opts.Workers = 2

	// Reference: an uninterrupted run, with the per-unit trace count.
	var fullExecs atomic.Int64
	full, err := Collect([]workload.Kernel{countingKernel{execs: &fullExecs}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var fullBytes bytes.Buffer
	if err := SaveTrainingData(&fullBytes, full); err != nil {
		t.Fatal(err)
	}

	// A "checkpoint": the full dataset truncated to its first two
	// distinct units, round-tripped through the on-disk format exactly
	// as a resume would see it.
	keys := map[string]bool{}
	var order []string
	for _, s := range full.Samples {
		key := inputKey(s.App, s.Input)
		if !keys[key] {
			keys[key] = true
			order = append(order, key)
		}
	}
	if len(order) < 3 {
		t.Fatalf("need >= 3 distinct units, have %d", len(order))
	}
	kept := map[string]bool{order[0]: true, order[1]: true}
	partial := &TrainingData{Names: full.Names, DoEConfigs: full.DoEConfigs}
	for _, s := range full.Samples {
		if kept[inputKey(s.App, s.Input)] {
			partial.Samples = append(partial.Samples, s)
		}
	}
	var ckBytes bytes.Buffer
	if err := SaveTrainingData(&ckBytes, partial); err != nil {
		t.Fatal(err)
	}
	prior, err := LoadTrainingData(&ckBytes)
	if err != nil {
		t.Fatal(err)
	}

	// Resume: only the remaining units execute, progress fires per unit,
	// and the final bytes match the uninterrupted run.
	var resumeExecs atomic.Int64
	var calls, lastDone, total int
	ck := &CollectCheckpoint{
		Prior: prior,
		OnUnit: func(done, tot int, snapshot func() *TrainingData) {
			calls++
			lastDone, total = done, tot
			if snap := snapshot(); len(snap.Samples) == 0 {
				t.Error("snapshot mid-run is empty")
			}
		},
	}
	resumed, err := CollectResumeContext(context.Background(), []workload.Kernel{countingKernel{execs: &resumeExecs}}, opts, ck)
	if err != nil {
		t.Fatal(err)
	}
	var resumedBytes bytes.Buffer
	if err := SaveTrainingData(&resumedBytes, resumed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullBytes.Bytes(), resumedBytes.Bytes()) {
		t.Fatalf("resumed dataset differs from uninterrupted run (%d vs %d bytes)",
			resumedBytes.Len(), fullBytes.Len())
	}

	// Per distinct unit the kernel traces 1+threads times; two units
	// were restored, so the resumed run must be short exactly their
	// share of the full run's executions.
	perUnit := fullExecs.Load() / int64(len(order))
	if fullExecs.Load()%int64(len(order)) != 0 {
		// Units may differ in thread count; fall back to the weaker
		// assertion that a strict subset re-executed.
		if resumeExecs.Load() >= fullExecs.Load() || resumeExecs.Load() == 0 {
			t.Fatalf("resume executed %d traces, full run %d", resumeExecs.Load(), fullExecs.Load())
		}
	} else if got, want := resumeExecs.Load(), fullExecs.Load()-2*perUnit; got != want {
		t.Fatalf("resume executed %d traces, want %d (full %d minus 2 restored units)", got, want, fullExecs.Load())
	}
	if calls != len(order)-2 {
		t.Fatalf("OnUnit fired %d times, want %d (one per executed unit)", calls, len(order)-2)
	}
	if lastDone != total || total != len(order) {
		t.Fatalf("final progress %d/%d, want %d/%d", lastDone, total, len(order), len(order))
	}
}

// TestCollectSelectExecutesOnlySelected pins the engine's selection
// contract, the one the active learner's rounds stand on: a selection
// executes exactly its units not already in Prior, the pool and queue
// count only those, and the result holds only the selected units'
// samples in plan order. An empty selection executes nothing, and
// resuming with the remaining keys selected reproduces Collect's bytes.
func TestCollectSelectExecutesOnlySelected(t *testing.T) {
	kernels := quickKernels(t, "atax")
	opts := quickOptions()
	opts.Workers = 4
	full, err := Collect(kernels, opts)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	seen := map[string]bool{}
	for _, s := range full.Samples {
		if key := UnitKey(s.App, s.Input); !seen[key] {
			seen[key] = true
			order = append(order, key)
		}
	}
	if len(order) < 6 {
		t.Fatalf("need >= 6 distinct units, have %d", len(order))
	}
	// subset is full restricted to keys, in full's (plan) order.
	subset := func(keys map[string]bool) *TrainingData {
		td := &TrainingData{Names: full.Names, DoEConfigs: full.DoEConfigs}
		for _, s := range full.Samples {
			if keys[UnitKey(s.App, s.Input)] {
				td.Samples = append(td.Samples, s)
			}
		}
		return td
	}
	save := func(td *TrainingData) []byte {
		var buf bytes.Buffer
		if err := SaveTrainingData(&buf, td); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var reg *obs.Registry
	run := func(ck *CollectCheckpoint) *TrainingData {
		t.Helper()
		o := opts
		reg = obs.NewRegistry()
		o.Metrics = reg
		td, err := CollectResumeContext(context.Background(), kernels, o, ck)
		if err != nil {
			t.Fatal(err)
		}
		return td
	}
	counter := func(name string) uint64 { return reg.Counter(name, "").Value() }

	// Prior holds order[0]; the selection names it and two more units,
	// so exactly those two execute.
	sel := map[string]bool{order[0]: true, order[2]: true, order[4]: true}
	calls := 0
	ck := &CollectCheckpoint{
		Prior:  subset(map[string]bool{order[0]: true}),
		Select: sel,
		OnUnit: func(done, total int, _ func() *TrainingData) {
			calls++
			if total != 3 {
				t.Errorf("OnUnit total %d, want 3 (1 restored + 2 selected)", total)
			}
			if w := reg.Gauge("napel_engine_workers", "").Value(); w != 2 {
				t.Errorf("pool of %g workers, want 2 (the selected units)", w)
			}
			if q := reg.Gauge("napel_engine_queue_depth", "").Value(); q > 1 {
				t.Errorf("queue depth %g counts units outside the selection", q)
			}
		},
	}
	td := run(ck)
	if done, restored := counter("napel_engine_units_done_total"), counter("napel_engine_units_restored_total"); calls != 2 || done != 2 || restored != 1 {
		t.Fatalf("%d OnUnit calls, %d units done, %d restored; want 2, 2 and 1", calls, done, restored)
	}
	if !bytes.Equal(save(td), save(subset(sel))) {
		t.Fatal("selected run holds other samples than the selected units' in plan order")
	}

	// An empty selection executes nothing, with or without a Prior.
	same := run(&CollectCheckpoint{Prior: td, Select: map[string]bool{}})
	if n := counter("napel_engine_units_done_total"); n != 0 {
		t.Fatalf("empty selection executed %d units", n)
	}
	if !bytes.Equal(save(same), save(td)) {
		t.Fatal("empty selection changed the dataset")
	}
	none := run(&CollectCheckpoint{Select: map[string]bool{}})
	if n := counter("napel_engine_units_done_total"); n != 0 || len(none.Samples) != 0 {
		t.Fatalf("empty selection without Prior executed %d units, %d samples", n, len(none.Samples))
	}

	// The rest of the plan, selected over the partial result, completes
	// it to exactly what Collect assembles.
	rest := map[string]bool{}
	for _, key := range order {
		if !sel[key] {
			rest[key] = true
		}
	}
	whole := run(&CollectCheckpoint{Prior: td, Select: rest})
	if n := counter("napel_engine_units_done_total"); n != uint64(len(rest)) {
		t.Fatalf("completing run executed %d units, want %d", n, len(rest))
	}
	if !bytes.Equal(save(whole), save(full)) {
		t.Fatal("selection resumed to completion differs from Collect")
	}
}

// TestCollectResumeRejectsForeignCheckpoint: a checkpoint with a
// different feature layout must fail loudly, not silently re-collect.
func TestCollectResumeRejectsForeignCheckpoint(t *testing.T) {
	opts := quickOptions()
	prior := &TrainingData{Names: []string{"bogus"}}
	_, err := CollectResumeContext(context.Background(), quickKernels(t, "atax"), opts, &CollectCheckpoint{Prior: prior})
	if err == nil {
		t.Fatal("incompatible checkpoint accepted")
	}
}

// TestCollectContextCancel: a cancelled context aborts collection but
// still returns the (possibly partial) dataset alongside ctx.Err().
func TestCollectContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	td, err := CollectContext(ctx, quickKernels(t, "atax"), quickOptions())
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if td == nil {
		t.Fatal("cancelled collection returned no dataset")
	}
	if len(td.Samples) != 0 {
		t.Fatalf("pre-cancelled context still collected %d samples", len(td.Samples))
	}
	if td.DoEConfigs["atax"] != 11 {
		t.Fatalf("DoEConfigs = %v, want the planned CCD size", td.DoEConfigs)
	}
}

// TestTrainingDataRoundTrip: Save→Load→Save reproduces the bytes and a
// loaded dataset has usable (empty, non-nil) auxiliary maps.
func TestTrainingDataRoundTrip(t *testing.T) {
	opts := quickOptions()
	td, err := Collect(quickKernels(t, "atax"), opts)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := SaveTrainingData(&first, td); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrainingData(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := SaveTrainingData(&second, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("round-tripped training data serializes differently")
	}
	if loaded.Profiles == nil || loaded.SimTime == nil || loaded.ProfileTime == nil {
		t.Fatal("loaded dataset has nil auxiliary maps")
	}
	if _, err := LoadTrainingData(bytes.NewReader([]byte(`{"version":99}`))); err == nil {
		t.Fatal("version 99 accepted")
	}
}

// TestEvaluateLOOCVContextMatchesSerial: the parallel fold runner returns
// the same applications, in the same order, with the same MREs as the
// serial path.
func TestEvaluateLOOCVContextMatchesSerial(t *testing.T) {
	opts := quickOptions()
	td, err := Collect(quickKernels(t, "atax", "mvt", "gesu"), opts)
	if err != nil {
		t.Fatal(err)
	}
	trainer := DefaultRFTrainer()
	serial, err := EvaluateLOOCVContext(context.Background(), td, TargetIPC, trainer, opts.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := EvaluateLOOCVContext(context.Background(), td, TargetIPC, trainer, opts.Seed, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 3 || len(parallel) != 3 {
		t.Fatalf("rows: serial %d, parallel %d, want 3", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].App != parallel[i].App || serial[i].MRE != parallel[i].MRE {
			t.Fatalf("row %d: serial %+v vs parallel %+v", i, serial[i], parallel[i])
		}
	}
	if _, err := EvaluateLOOCVContext(canceledCtx(), td, TargetIPC, trainer, opts.Seed, 2); err != context.Canceled {
		t.Fatalf("cancelled LOOCV err = %v, want context.Canceled", err)
	}
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestSimulateKernelArchsMatchesIndividual: the recorded fan-out wrapper
// returns bit-identical results to per-arch streamed simulations.
func TestSimulateKernelArchsMatchesIndividual(t *testing.T) {
	opts := quickOptions()
	k := quickKernels(t, "mvt")[0]
	in := workload.Scale(k, workload.CentralInput(k), opts.ScaleFactor, opts.MaxIters)
	got, err := SimulateKernelArchs(context.Background(), k, in, opts.TrainArchs, opts.SimBudget)
	if err != nil {
		t.Fatal(err)
	}
	for ai, arch := range opts.TrainArchs {
		want, err := SimulateKernel(k, in, arch, opts.SimBudget)
		if err != nil {
			t.Fatal(err)
		}
		if *got[ai] != *want {
			t.Fatalf("arch %d: %+v, want %+v", ai, *got[ai], *want)
		}
	}
	if _, err := SimulateKernelArchs(canceledCtx(), k, in, opts.TrainArchs, opts.SimBudget); err != context.Canceled {
		t.Fatalf("cancelled err = %v, want context.Canceled", err)
	}
}
