package napel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"napel/internal/nmcsim"
	"napel/internal/obs"
	"napel/internal/pisa"
	"napel/internal/resilience/faultpoint"
	"napel/internal/trace"
	"napel/internal/workload"
)

// fpUnit fails a collection unit's attempt at its start, active only
// under an installed faultpoint plan — the hook the chaos harness uses
// to exercise per-unit retry and quarantine.
const fpUnit = "engine.unit"

// This file is the data-collection engine: Collect decomposed into
// independent (kernel, input) units executed by a worker pool, each unit
// tracing its kernel once per shard and replaying the recordings to
// every training architecture. Results are written into a preallocated
// slot per unit and assembled into TrainingData in plan order, so the
// output is bit-identical for any worker count.

// collectUnit is one distinct (kernel, scaled input) pair. CCD centre
// replicates collapse onto a single unit and are re-expanded at assembly.
type collectUnit struct {
	kernel workload.Kernel
	in     workload.Input
	key    string
}

// kernelPlan remembers how one kernel's input list maps onto units so
// assembly can reproduce the exact serial-collection sample order,
// replicates included.
type kernelPlan struct {
	k         workload.Kernel
	occ       []int // unit index per input occurrence, in selection order
	numInputs int
}

// unitResult is everything one unit produces. done distinguishes a
// finished unit from one skipped by cancellation; wall-clock durations
// are kept separate from the deterministic payload. A unit restored
// from a resume checkpoint — or executed remotely through
// Options.Executor — carries its per-architecture samples instead of a
// profile and simulator results (checkpoints and unit payloads persist
// only the deterministic sample payload).
type unitResult struct {
	prof        *pisa.Profile
	profileTime time.Duration
	recordTime  time.Duration
	sims        []*nmcsim.Result
	simTimes    []time.Duration
	samples     []Sample // one sample per training arch, pre-built (checkpoint restore or executor payload)
	err         error
	done        bool
	// quarantined marks a unit whose error exhausted its retries under
	// Options.QuarantineFailures: it is excluded from the dataset
	// instead of failing the run.
	quarantined bool
}

// CollectCheckpoint wires crash-safe and incremental collection into
// the engine: Prior seeds the run with units completed by an earlier
// collection of the same kernels and options, Select limits which of
// the remaining units run, and OnUnit lets the caller persist progress
// as units finish. Every field is optional.
type CollectCheckpoint struct {
	// Prior is a dataset saved from a previous partial collection
	// (typically LoadTrainingData of a checkpoint file). Units whose
	// samples for every training architecture appear in Prior are not
	// re-executed; their samples are restored verbatim. Prior must have
	// the same feature layout the run would produce. Restored units
	// contribute no Profiles/SimTime/ProfileTime entries — checkpoints
	// never carry those — but the assembled Samples, and therefore any
	// predictor trained on them, are bit-identical to an uninterrupted
	// run (JSON float64 round-trips are exact).
	Prior *TrainingData
	// Select, when non-nil, is the set of unit keys (UnitKey) to
	// execute: a planned unit outside it runs nowhere and is absent from
	// the result unless Prior restores it, and an empty set executes
	// nothing. Nil executes every planned unit. A unit Prior lists as
	// quarantined and Select leaves out stays listed, so a dataset grown
	// one selection at a time (the active learner's rounds) keeps every
	// quarantine verdict.
	Select map[string]bool
	// OnUnit, when non-nil, is invoked after every unit completes —
	// serially, under the engine's bookkeeping lock — with the number of
	// finished units (restored ones included), the total the run will
	// hold, and a snapshot function assembling everything collected so
	// far into a fresh TrainingData. Assembly costs O(collected samples);
	// callers that checkpoint on an interval should only invoke snapshot
	// when they actually persist. snapshot must not be called after
	// OnUnit returns.
	OnUnit func(done, total int, snapshot func() *TrainingData)
}

// CollectContext is Collect with cancellation: on ctx cancellation it
// stops scheduling units and returns the data assembled so far alongside
// ctx.Err(), so callers can still report partial timing.
func CollectContext(ctx context.Context, kernels []workload.Kernel, opts Options) (*TrainingData, error) {
	return CollectWithInputsContext(ctx, kernels, opts, CCDInputs)
}

// CollectResumeContext is CollectContext with checkpoint support: it
// restores completed units from ck.Prior, executes only ck.Select when
// set, and reports per-unit progress through ck.OnUnit. It is the entry
// point of `napel train -resume`, the napel-traind job manager and each
// round of collectd.ActiveCollect.
func CollectResumeContext(ctx context.Context, kernels []workload.Kernel, opts Options, ck *CollectCheckpoint) (*TrainingData, error) {
	return collectEngine(ctx, kernels, opts, CCDInputs, ck)
}

// CollectWithInputsContext is Collect with a custom input-selection
// strategy and cancellation — the hook the DoE ablation uses to compare
// CCD against other samplings of the same budget.
func CollectWithInputsContext(ctx context.Context, kernels []workload.Kernel, opts Options, inputsFor func(workload.Kernel) []workload.Input) (*TrainingData, error) {
	return collectEngine(ctx, kernels, opts, inputsFor, nil)
}

// collectEngine is the engine entry point backing every Collect variant:
// exhaustive, resumed, distributed (through Options.Executor) and active
// collection all execute their units in its one worker pool.
func collectEngine(ctx context.Context, kernels []workload.Kernel, opts Options, inputsFor func(workload.Kernel) []workload.Input, ck *CollectCheckpoint) (*TrainingData, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ck == nil {
		ck = &CollectCheckpoint{}
	}

	plans, units := planCollect(kernels, opts, inputsFor)

	// Restore units completed by a previous run before scheduling any
	// work: a restored slot is done from the start. todo then lists the
	// units this call executes.
	results := make([]unitResult, len(units))
	done := 0
	priorQ := map[string]string{}
	if ck.Prior != nil {
		restored, err := restoreUnits(ck.Prior, units, opts)
		if err != nil {
			return nil, err
		}
		for idx, samples := range restored {
			results[idx] = unitResult{samples: samples, done: true}
			done++
		}
		for _, q := range ck.Prior.Quarantined {
			priorQ[inputKey(q.App, q.Input)] = q.Error
		}
	}
	var todo []int
	for idx, u := range units {
		switch {
		case results[idx].done:
		case ck.Select == nil || ck.Select[u.key]:
			todo = append(todo, idx)
		default: // left out by Select: Prior's quarantine verdict stands
			if msg, ok := priorQ[u.key]; ok {
				results[idx] = unitResult{err: errors.New(msg), quarantined: true}
			}
		}
	}

	// Execute: a worker pool over the todo list. Each unit computes
	// outside the bookkeeping lock and only publishes its result slot —
	// and fires the checkpoint hook — under it, so OnUnit's snapshot can
	// safely assemble the results collected so far.
	var mu sync.Mutex
	total := done + len(todo)
	workers := min(opts.workers(), len(todo))
	eo := newEngineObs(opts.Metrics)
	eo.startRun(workers, len(todo), done)
	defer eo.endRun()
	ectx, espan := obs.StartSpan(ctx, "engine")
	espan.SetAttrInt("units", int64(total))
	espan.SetAttrInt("restored", int64(done))
	espan.SetAttrInt("workers", int64(workers))
	runPool(ctx, workers, len(todo), func(i int) {
		idx := todo[i]
		eo.unitStart()
		t0 := time.Now()
		r := collectOneUnit(ectx, units[idx], opts, eo)
		eo.unitEnd(time.Since(t0).Seconds(), r.done, r.err)
		mu.Lock()
		defer mu.Unlock()
		results[idx] = r
		if r.done {
			done++
			if ck.OnUnit != nil {
				tck := time.Now()
				ck.OnUnit(done, total, func() *TrainingData {
					return assembleTrainingData(plans, units, results, opts)
				})
				eo.ckpSec.ObserveSince(tck)
			}
		}
	})
	espan.End()

	// The first hard error in unit order wins, matching the serial
	// loop's abort-at-first-failure contract. Context aborts are not
	// hard errors — they surface via ctx.Err() below so partial data
	// survives a SIGINT. Quarantined units are not hard errors either:
	// they surface through TrainingData.Quarantined instead.
	for i := range results {
		err := results[i].err
		if err != nil && !results[i].quarantined && !isCanceled(err) {
			return nil, fmt.Errorf("napel: collecting %s: %w", units[i].kernel.Name(), err)
		}
	}

	td := assembleTrainingData(plans, units, results, opts)
	if err := ctx.Err(); err != nil {
		return td, err
	}
	return td, nil
}

// planCollect runs the engine's planning pass: dedupe the scaled inputs
// into units, remembering each kernel's occurrence order for
// deterministic assembly. It is shared by every entry point that must
// agree on unit identity: collection and PlanUnits.
func planCollect(kernels []workload.Kernel, opts Options, inputsFor func(workload.Kernel) []workload.Input) ([]kernelPlan, []collectUnit) {
	var units []collectUnit
	unitIdx := map[string]int{}
	plans := make([]kernelPlan, 0, len(kernels))
	for _, k := range kernels {
		inputs := inputsFor(k)
		plan := kernelPlan{k: k, numInputs: len(inputs)}
		for _, rawIn := range inputs {
			in := workload.Scale(k, rawIn, opts.ScaleFactor, opts.MaxIters)
			key := inputKey(k.Name(), in)
			idx, ok := unitIdx[key]
			if !ok {
				idx = len(units)
				unitIdx[key] = idx
				units = append(units, collectUnit{kernel: k, in: in, key: key})
			}
			plan.occ = append(plan.occ, idx)
		}
		plans = append(plans, plan)
	}
	return plans, units
}

// isCanceled reports whether err is a context abort — never retried,
// never quarantined, and not a hard collection error (partial data
// survives a SIGINT).
func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// collectOneUnit executes one unit with per-unit retry and quarantine
// classification — the shared body of every engine entry point. With
// Options.Executor set the unit is delegated (leased to a remote
// worker by internal/collectd); executor failures flow through exactly
// the same retry/quarantine path as local ones, so a lease that
// expires or returns a corrupt payload is just another retryable error.
func collectOneUnit(ctx context.Context, u collectUnit, opts Options, eo *engineObs) unitResult {
	uctx, uspan := obs.StartSpan(ctx, "engine.unit")
	uspan.SetAttr("kernel", u.kernel.Name())
	uspan.SetAttrInt("threads", int64(u.in.Threads()))
	// Per-unit retry: unit work is deterministic, so a failure is
	// environmental (or injected) and an immediate re-execution is
	// the right recovery. Cancellation is never retried.
	var r unitResult
	for attempt := 1; ; attempt++ {
		if err := faultpoint.Inject(uctx, fpUnit); err != nil {
			r = unitResult{err: err}
		} else if opts.Executor != nil {
			r = executorResult(uctx, u, opts)
		} else {
			r = runCollectUnit(uctx, u, opts, eo)
		}
		if r.err == nil || attempt > opts.UnitRetries || uctx.Err() != nil || isCanceled(r.err) {
			break
		}
		eo.retries.Inc()
	}
	if r.err != nil && opts.QuarantineFailures && uctx.Err() == nil && !isCanceled(r.err) {
		r.quarantined = true
		eo.quarantined.Inc()
	}
	uspan.SetError(r.err)
	uspan.End()
	return r
}

// executorResult delegates one unit to Options.Executor and validates
// the returned payload against the plan before accepting its samples.
func executorResult(ctx context.Context, u collectUnit, opts Options) unitResult {
	spec := unitSpec(u, opts)
	p, err := opts.Executor(ctx, spec)
	if err != nil {
		return unitResult{err: err}
	}
	if err := p.Check(spec); err != nil {
		return unitResult{err: err}
	}
	return unitResult{samples: p.Samples, done: true}
}

// unitSamples builds the per-architecture samples for one locally
// executed unit. It is the single sample-construction path: local
// assembly and remote execution (ExecuteUnit) both call it, so the
// feature layout is code-identical on both sides of the collectd wire.
// simTimes nil zeroes per-sample SimTime — the wire/checkpoint contract.
func unitSamples(u collectUnit, prof *pisa.Profile, sims []*nmcsim.Result, simTimes []time.Duration, archs []nmcsim.Config) []Sample {
	base := prof.Vector()
	threads := u.in.Threads()
	out := make([]Sample, 0, len(archs))
	for ai, arch := range archs {
		feat := make([]float64, 0, len(base)+NumArchFeatures)
		feat = append(feat, base...)
		feat = append(feat, ArchVector(arch, prof, threads)...)
		var st time.Duration
		if simTimes != nil {
			st = simTimes[ai]
		}
		out = append(out, Sample{
			App:       u.kernel.Name(),
			Input:     u.in,
			ArchIdx:   ai,
			ActivePEs: ActivePEs(threads, arch.PEs),
			Features:  feat,
			IPC:       sims[ai].IPC,
			EPI:       sims[ai].EPI,
			SimTime:   st,
		})
	}
	return out
}

// assembleTrainingData builds the dataset single-threaded in plan order:
// the output is a pure function of the unit results, independent of
// completion order, so it serves both the final return value and the
// mid-run checkpoint snapshots.
func assembleTrainingData(plans []kernelPlan, units []collectUnit, results []unitResult, opts Options) *TrainingData {
	td := &TrainingData{
		Names:       append([]string(nil), featureLayout()...),
		Profiles:    map[string]*pisa.Profile{},
		DoEConfigs:  map[string]int{},
		SimTime:     map[string]time.Duration{},
		ProfileTime: map[string]time.Duration{},
	}
	// Units were created in first-occurrence plan order, so a single
	// sweep reports quarantined units deterministically. Dedupe by unit
	// key: a unit that failed, retried, and failed again is one poisoned
	// unit, not several, and duplicate keys can reach this sweep when a
	// kernel appears twice in the plan.
	seenQ := map[string]bool{}
	for idx := range results {
		if results[idx].quarantined && !seenQ[units[idx].key] {
			seenQ[units[idx].key] = true
			td.Quarantined = append(td.Quarantined, QuarantinedUnit{
				App:   units[idx].kernel.Name(),
				Input: units[idx].in,
				Error: results[idx].err.Error(),
			})
		}
	}
	for _, plan := range plans {
		td.DoEConfigs[plan.k.Name()] = plan.numInputs
		for _, idx := range plan.occ {
			r := &results[idx]
			if !r.done {
				continue
			}
			u := units[idx]
			if r.samples != nil {
				// A unit restored from a checkpoint — or executed through
				// Options.Executor — replays its pre-built samples per
				// occurrence; profiles and timing were never transported,
				// so those maps skip it.
				td.Samples = append(td.Samples, r.samples...)
				continue
			}
			if _, ok := td.Profiles[u.key]; !ok {
				td.Profiles[u.key] = r.prof
				td.ProfileTime[u.kernel.Name()] += r.profileTime
				simDur := r.recordTime
				for _, d := range r.simTimes {
					simDur += d
				}
				td.SimTime[u.kernel.Name()] += simDur
			}
			td.Samples = append(td.Samples, unitSamples(u, r.prof, r.sims, r.simTimes, opts.TrainArchs)...)
		}
	}
	return td
}

// restoreUnits maps a prior (partial) dataset back onto the planned unit
// list: a unit is restorable when the prior holds one sample for every
// training architecture of this run. Returns unit index → samples in
// architecture order.
func restoreUnits(prior *TrainingData, units []collectUnit, opts Options) (map[int][]Sample, error) {
	if err := checkFeatureLayout(prior.Names); err != nil {
		return nil, fmt.Errorf("napel: resume checkpoint: %w", err)
	}
	narchs := len(opts.TrainArchs)
	// First sample per (unit key, arch index) wins; centre replicates of
	// the same unit are byte-identical so any occurrence is equivalent.
	byKey := map[string][]Sample{}
	for _, s := range prior.Samples {
		if s.ArchIdx < 0 || s.ArchIdx >= narchs {
			continue
		}
		key := inputKey(s.App, s.Input)
		arr, ok := byKey[key]
		if !ok {
			arr = make([]Sample, narchs)
			byKey[key] = arr
		}
		if arr[s.ArchIdx].Features == nil {
			s.SimTime = 0
			arr[s.ArchIdx] = s
		}
	}
	restored := map[int][]Sample{}
	for idx, u := range units {
		arr, ok := byKey[u.key]
		if !ok {
			continue
		}
		complete := true
		for _, s := range arr {
			if s.Features == nil {
				complete = false
				break
			}
		}
		if complete {
			restored[idx] = arr
		}
	}
	return restored, nil
}

// runCollectUnit executes one unit: the profiling pass, one trace
// recording per shard, and a replayed simulation per training
// architecture. The kernel's trace generator runs exactly 1+threads
// times regardless of how many architectures are trained on — the
// single-pass saving over the per-arch re-execution it replaces.
func runCollectUnit(ctx context.Context, u collectUnit, opts Options, eo *engineObs) unitResult {
	var r unitResult
	if ctx.Err() != nil {
		return r
	}
	t0 := time.Now()
	_, pspan := obs.StartSpan(ctx, "profile")
	prof, err := ProfileKernel(u.kernel, u.in, opts.ProfileBudget)
	pspan.SetError(err)
	pspan.End()
	if err != nil {
		r.err = err
		return r
	}
	r.profileTime = time.Since(t0)
	r.prof = prof
	eo.observeStage("profile", r.profileTime.Seconds())

	threads := u.in.Threads()
	t0 = time.Now()
	_, rspan := obs.StartSpan(ctx, "record")
	recs, err := recordShards(u.kernel, u.in, threads, opts.SimBudget)
	rspan.SetError(err)
	rspan.End()
	if err != nil {
		r.err = err
		return r
	}
	r.recordTime = time.Since(t0)
	eo.observeStage("record", r.recordTime.Seconds())

	simStart := time.Now()
	_, sspan := obs.StartSpan(ctx, "simulate")
	sspan.SetAttrInt("archs", int64(len(opts.TrainArchs)))
	defer func() {
		sspan.SetError(r.err)
		sspan.End()
		eo.observeStage("simulate", time.Since(simStart).Seconds())
	}()
	r.sims = make([]*nmcsim.Result, len(opts.TrainArchs))
	r.simTimes = make([]time.Duration, len(opts.TrainArchs))
	for ai, arch := range opts.TrainArchs {
		if err := ctx.Err(); err != nil {
			r.err = err
			return r
		}
		t0 = time.Now()
		res, err := nmcsim.RunSources(arch, threads, opts.SimBudget, func(shard int, _ uint64) trace.InstSource {
			return recs[shard].Source()
		})
		if err != nil {
			r.err = err
			return r
		}
		r.simTimes[ai] = time.Since(t0)
		r.sims[ai] = res
	}
	r.done = true
	return r
}

// recordShards materializes kernel k's trace once per shard at the
// per-thread budget nmcsim would apply. Shard traces are independent of
// the simulated architecture, so the recordings replay bit-identically
// to any number of configs.
func recordShards(k workload.Kernel, in workload.Input, threads int, budget uint64) ([]*trace.Recording, error) {
	if err := workload.Validate(k, in); err != nil {
		return nil, err
	}
	if threads <= 0 {
		return nil, fmt.Errorf("napel: thread count %d must be positive", threads)
	}
	per := nmcsim.PerThreadBudget(budget, threads)
	recs := make([]*trace.Recording, threads)
	for shard := range recs {
		shard := shard
		recs[shard] = trace.Record(per, func(t *trace.Tracer) {
			k.Trace(in, shard, threads, t)
		})
	}
	return recs, nil
}

// SimulateKernelArchs simulates kernel k with input in on every config
// in archs from a single set of shard recordings — the single-pass
// replacement for calling SimulateKernel once per architecture. Results
// are bit-identical to the individual runs and positionally aligned
// with archs.
func SimulateKernelArchs(ctx context.Context, k workload.Kernel, in workload.Input, archs []nmcsim.Config, budget uint64) ([]*nmcsim.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	threads := in.Threads()
	recs, err := recordShards(k, in, threads, budget)
	if err != nil {
		return nil, err
	}
	out := make([]*nmcsim.Result, len(archs))
	for i, cfg := range archs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i], err = nmcsim.RunSources(cfg, threads, budget, func(shard int, _ uint64) trace.InstSource {
			return recs[shard].Source()
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
