package napel

import (
	"context"
	"fmt"
	"time"

	"napel/internal/nmcsim"
	"napel/internal/obs"
	"napel/internal/pisa"
	"napel/internal/workload"
)

// This file is the unit extraction/injection surface of the collection
// engine: the wire-level view of one (kernel, input) unit that lets a
// remote process (napel-worker via internal/collectd) execute units the
// planner selected, and lets the planner re-inject the returned payloads
// into the deterministic plan-order assembly. The invariant the types
// below protect: a unit's payload is a pure function of its spec, so
// assembly from payloads is byte-identical to single-machine collection
// no matter which process produced each payload, or when.

// UnitSpec is the self-contained description of one planned collection
// unit. Input is already scaled (workload.Scale was applied at
// planning), so executing a spec never re-scales. The spec round-trips
// through JSON exactly: Input is a map[string]int and nmcsim.Config
// holds only integers, strings and floats Go re-encodes minimally.
type UnitSpec struct {
	Kernel string         `json:"kernel"`
	Input  workload.Input `json:"input"`
	// Key is the unit's identity, inputKey(Kernel, Input); carried
	// explicitly so coordinator and worker can cross-check they agree on
	// which unit a payload belongs to.
	Key           string          `json:"key"`
	ProfileBudget uint64          `json:"profile_budget"`
	SimBudget     uint64          `json:"sim_budget"`
	TrainArchs    []nmcsim.Config `json:"train_archs"`
	// Tags are the capability tags a worker must advertise to be leased
	// this unit (Options.Tags, stamped at planning). Scheduling metadata
	// only: they never influence execution, so the payload stays a pure
	// function of the fields above and byte-identity is unaffected.
	Tags []string `json:"tags,omitempty"`
}

// Validate checks a spec received off the wire before executing it.
func (s UnitSpec) Validate() error {
	if s.Kernel == "" {
		return fmt.Errorf("napel: unit spec has no kernel")
	}
	if len(s.TrainArchs) == 0 {
		return fmt.Errorf("napel: unit spec for %s has no training architectures", s.Kernel)
	}
	for _, a := range s.TrainArchs {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	if want := inputKey(s.Kernel, s.Input); s.Key != "" && s.Key != want {
		return fmt.Errorf("napel: unit spec key %q does not match its kernel/input (%q)", s.Key, want)
	}
	return nil
}

// UnitPayload is everything one executed unit contributes to the
// dataset. Samples (one per training architecture, in architecture
// order) are the deterministic part: float64 features and labels
// round-trip JSON exactly, so a payload produced remotely assembles
// byte-identically to local execution. The wall-clock fields are
// observational only — SaveTrainingData never serializes timing, and
// per-sample SimTime is zeroed (the same contract checkpoint-restored
// units follow).
type UnitPayload struct {
	Key         string        `json:"key"`
	Samples     []Sample      `json:"samples"`
	ProfileTime time.Duration `json:"profile_time_ns"`
	SimTime     time.Duration `json:"sim_time_ns"`
}

// Check verifies a payload claims exactly the samples spec's executor
// should have produced: one per training architecture, on spec's
// kernel/input, with the full feature layout. It does not (cannot)
// verify label values — that is what deterministic re-execution and the
// collectd content hash are for.
func (p *UnitPayload) Check(spec UnitSpec) error {
	if p == nil {
		return fmt.Errorf("napel: nil unit payload")
	}
	key := spec.Key
	if key == "" {
		key = inputKey(spec.Kernel, spec.Input)
	}
	if p.Key != key {
		return fmt.Errorf("napel: unit payload key %q, want %q", p.Key, key)
	}
	if len(p.Samples) != len(spec.TrainArchs) {
		return fmt.Errorf("napel: unit %s payload has %d samples, want one per training arch (%d)",
			key, len(p.Samples), len(spec.TrainArchs))
	}
	wantFeat := len(pisa.FeatureNames()) + NumArchFeatures
	for i, s := range p.Samples {
		if s.ArchIdx != i {
			return fmt.Errorf("napel: unit %s payload sample %d has arch index %d", key, i, s.ArchIdx)
		}
		if s.App != spec.Kernel || inputKey(s.App, s.Input) != key {
			return fmt.Errorf("napel: unit %s payload sample %d belongs to %s", key, i, inputKey(s.App, s.Input))
		}
		if len(s.Features) != wantFeat {
			return fmt.Errorf("napel: unit %s payload sample %d has %d features, want %d", key, i, len(s.Features), wantFeat)
		}
	}
	return nil
}

// UnitExecutor runs one planned unit and returns its payload. The
// engine calls it instead of executing in-process when Options.Executor
// is set; internal/collectd's coordinator is one (it leases the spec to
// a remote worker), and any error it returns flows through the engine's
// existing per-unit retry and quarantine machinery.
type UnitExecutor func(ctx context.Context, spec UnitSpec) (*UnitPayload, error)

// UnitKey returns the canonical identity of a (kernel, scaled input)
// unit — the key UnitSpec.Key and UnitPayload.Key carry.
func UnitKey(app string, in workload.Input) string { return inputKey(app, in) }

// unitSpec projects a planned unit onto the wire type.
func unitSpec(u collectUnit, opts Options) UnitSpec {
	return UnitSpec{
		Kernel:        u.kernel.Name(),
		Input:         u.in,
		Key:           u.key,
		ProfileBudget: opts.ProfileBudget,
		SimBudget:     opts.SimBudget,
		TrainArchs:    opts.TrainArchs,
		Tags:          opts.Tags,
	}
}

// PlanUnits exposes the engine's planning pass: the distinct
// (kernel, scaled input) units of the CCD design that Collect and
// CollectResumeContext execute, in first-occurrence plan order, as
// self-contained specs. The active-learning scheduler plans its
// candidate pool with this, so every key it selects names a unit
// CollectResumeContext plans.
func PlanUnits(kernels []workload.Kernel, opts Options) ([]UnitSpec, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	_, units := planCollect(kernels, opts, CCDInputs)
	specs := make([]UnitSpec, len(units))
	for i, u := range units {
		specs[i] = unitSpec(u, opts)
	}
	return specs, nil
}

// ExecuteUnit executes one unit spec in-process: the profiling pass,
// per-shard trace recording, and a replayed simulation per training
// architecture, building the exact samples local assembly would build.
// It is what napel-worker runs for every lease, and the reference
// implementation any UnitExecutor must be payload-equivalent to. reg
// receives the engine's stage series; a nil reg records them on a
// private registry. Either way the payload is the same.
func ExecuteUnit(ctx context.Context, spec UnitSpec, reg *obs.Registry) (*UnitPayload, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	k, err := workload.ByName(spec.Kernel)
	if err != nil {
		return nil, err
	}
	u := collectUnit{kernel: k, in: spec.Input, key: inputKey(spec.Kernel, spec.Input)}
	opts := Options{ProfileBudget: spec.ProfileBudget, SimBudget: spec.SimBudget, TrainArchs: spec.TrainArchs}
	r := runCollectUnit(ctx, u, opts, newEngineObs(reg))
	if r.err != nil {
		return nil, r.err
	}
	if !r.done {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("napel: unit %s did not complete", u.key)
	}
	simTime := r.recordTime
	for _, d := range r.simTimes {
		simTime += d
	}
	return &UnitPayload{
		Key:         u.key,
		Samples:     unitSamples(u, r.prof, r.sims, nil, spec.TrainArchs),
		ProfileTime: r.profileTime,
		SimTime:     simTime,
	}, nil
}
