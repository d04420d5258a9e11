// Package napel is the core of this repository: the NMC Application
// performance and energy Prediction framework using Ensemble machine
// Learning (NAPEL, Singh et al., DAC 2019).
//
// The pipeline mirrors Figure 1 of the paper:
//
//  1. Kernel analysis — internal/pisa extracts a 395-feature
//     microarchitecture-independent profile of each (kernel, input).
//  2. DoE simulations — internal/doe selects 11–31 input configurations
//     per application (central composite design); each is simulated on
//     internal/nmcsim across a small set of NMC architecture
//     configurations, producing IPC and energy labels.
//  3. Ensemble learning — a random forest (internal/ml/rf) is trained on
//     (profile ⊕ architecture) → IPC and → energy-per-instruction, with
//     grid hyper-parameter tuning under k-fold cross-validation.
//
// Once trained, Predictor.Predict estimates performance
// (Π = I_offload/(IPC·f)), energy and EDP of a previously-unseen
// application on a given NMC architecture without running a simulation.
package napel

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"napel/internal/doe"
	"napel/internal/hostsim"
	"napel/internal/nmcsim"
	"napel/internal/obs"
	"napel/internal/pisa"
	"napel/internal/stats"
	"napel/internal/trace"
	"napel/internal/workload"
	"napel/internal/xrand"
)

// Options configures the end-to-end pipeline. The zero value is not
// usable; start from DefaultOptions.
type Options struct {
	Seed uint64
	// ScaleFactor divides dimension-like DoE parameters (and its square
	// divides size-like ones) to derive tractable proxy inputs; see
	// workload.Scale.
	ScaleFactor int
	// MaxIters caps iteration-count DoE parameters.
	MaxIters int
	// TestScaleFactor/TestMaxIters scale the Table 2 *test* inputs used
	// by the Figure 6/7 use case. The test inputs must stay large enough
	// that memory-bound workloads overflow the host cache hierarchy —
	// that contrast is the point of the suitability analysis — so they
	// are scaled far more gently than the DoE training inputs (budget
	// caps plus coverage extrapolation keep the runs tractable).
	TestScaleFactor int
	TestMaxIters    int
	// ProfileBudget caps instructions per profiling pass. The paper's
	// LLVM-level analysis is far cheaper than cycle simulation; the
	// smaller profile budget models that asymmetry and features converge
	// well before the cap.
	ProfileBudget uint64
	// SimBudget caps instructions per NMC simulation.
	SimBudget uint64
	// HostBudget caps instructions per host-model run.
	HostBudget uint64
	// TrainArchs are the NMC architecture configurations used to gather
	// training labels. RefArch (Table 3) is always included.
	TrainArchs []nmcsim.Config
	// RefArch is the reference NMC system (Table 3), used for prediction
	// and the EDP use case.
	RefArch nmcsim.Config
	// Host is the host system (Table 3 POWER9) for the EDP comparison.
	Host hostsim.Config
	// Workers bounds the number of (kernel, input) units collected
	// concurrently; 0 means runtime.GOMAXPROCS(0). The assembled
	// TrainingData is bit-identical for any worker count.
	Workers int
	// UnitRetries re-executes a failed (kernel, input) unit up to this
	// many additional times before giving up (default 0 — a unit fails
	// on its first error). Retries are immediate: unit work is
	// deterministic and CPU-bound, so failures are environmental and a
	// backoff would only idle a worker.
	UnitRetries int
	// QuarantineFailures, when true, excludes units that exhaust their
	// retries from the dataset — recorded in TrainingData.Quarantined —
	// instead of failing the whole collection. The default false keeps
	// the serial loop's abort-on-first-error contract.
	QuarantineFailures bool
	// Executor, when non-nil, runs each planned unit instead of the
	// in-process profile/record/simulate path — the hook internal/collectd
	// uses to lease units to remote napel-worker processes. The executor
	// must be payload-equivalent to ExecuteUnit; the engine validates
	// every payload against its spec and assembles the returned samples
	// in plan order, so the output stays byte-identical to local
	// collection for any executor, worker count, or completion order.
	// Retries, quarantine, and checkpoints apply unchanged.
	Executor UnitExecutor
	// Tags, stamped onto every planned UnitSpec, restrict distributed
	// execution to workers advertising all of them (collectd capability
	// routing). Ignored — deliberately — by local execution: tags are
	// scheduling metadata and never change payload bytes.
	Tags []string
	// Metrics receives the engine's napel_engine_* series (worker
	// utilization, queue depth, per-unit and per-stage latency). When
	// nil, each call records them on a private registry that nobody
	// scrapes (about 80 allocations per call). Instrumentation never
	// affects the collected data.
	Metrics *obs.Registry
}

// workers resolves the effective worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultOptions returns the configuration used by the experiment
// drivers: Table 3 reference systems, a 4-point training architecture
// sweep around them, and budgets sized so the full 12-application
// pipeline runs in minutes on a laptop.
func DefaultOptions() Options {
	ref := nmcsim.DefaultConfig()
	return Options{
		Seed:            42,
		ScaleFactor:     8,
		MaxIters:        2,
		TestScaleFactor: 1,
		TestMaxIters:    1,
		ProfileBudget:   1_000_000,
		SimBudget:       1_000_000,
		HostBudget:      2_000_000,
		TrainArchs:      DefaultTrainArchs(),
		RefArch:         ref,
		Host:            hostsim.DefaultConfig(),
	}
}

// DefaultTrainArchs returns the architecture configurations the training
// data is gathered on: the Table 3 reference plus variations in PE
// count, frequency and L1 capacity — the architectural axes of Table 1.
func DefaultTrainArchs() []nmcsim.Config {
	ref := nmcsim.DefaultConfig()
	small := ref
	small.PEs = 16
	small.FreqGHz = 0.8
	big := ref
	big.PEs = 64
	big.FreqGHz = 2.0
	cachey := ref
	cachey.L1.Lines = 64
	cachey.L1.Assoc = 4
	lean := ref
	lean.L1.Lines = 2
	lean.L1.Assoc = 1
	lean.FreqGHz = 1.0
	return []nmcsim.Config{ref, small, big, cachey, lean}
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.ScaleFactor < 1 {
		return fmt.Errorf("napel: scale factor %d must be >= 1", o.ScaleFactor)
	}
	if o.TestScaleFactor < 1 {
		return fmt.Errorf("napel: test scale factor %d must be >= 1", o.TestScaleFactor)
	}
	if len(o.TrainArchs) == 0 {
		return fmt.Errorf("napel: at least one training architecture is required")
	}
	if err := o.RefArch.Validate(); err != nil {
		return err
	}
	for _, a := range o.TrainArchs {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	return o.Host.Validate()
}

// NumArchFeatures is the number of architecture/run features appended to
// the 395-entry application profile: the nine NMC architectural features
// of Table 1 plus the run's hardware-thread count.
const NumArchFeatures = 10

// ArchFeatureNames returns the names of the appended features,
// index-aligned with ArchVector.
func ArchFeatureNames() []string {
	return []string{
		"arch_core_inorder",
		"arch_pes",
		"arch_freq_ghz",
		"arch_cache_line_bytes",
		"arch_cache_lines",
		"arch_dram_layers",
		"arch_dram_bytes_log2",
		"arch_cache_access_frac",
		"arch_dram_access_frac",
		"run_threads",
	}
}

// ArchVector derives the Table 1 architectural feature vector for cfg.
// The cache/DRAM access fractions are estimated from the profile's
// hardware-independent reuse-distance CDF evaluated at the cache
// capacity — no simulation involved.
func ArchVector(cfg nmcsim.Config, prof *pisa.Profile, threads int) []float64 {
	eqLines := cfg.L1.SizeBytes() / pisa.LineGranularity
	if eqLines < 1 {
		eqLines = 1
	}
	hit := prof.EstHitFraction(eqLines)
	coreInOrder := 1.0
	if cfg.Core == nmcsim.OutOfOrder {
		coreInOrder = 0
	}
	return []float64{
		coreInOrder, // Table 1 "core type"
		float64(cfg.PEs),
		cfg.FreqGHz,
		float64(cfg.L1.LineSize),
		float64(cfg.L1.Lines),
		float64(cfg.DRAM.Layers),
		log2(float64(cfg.DRAM.SizeBytes)),
		hit,
		1 - hit,
		float64(threads),
	}
}

// ArchVectorFromCurve is ArchVector for consumers that hold a profile's
// exported hit-fraction curve (pisa.Profile.HitFractionCurve) instead of
// the profile itself — e.g. napel-serve assembling feature vectors from
// wire-format requests. It produces bit-identical output to ArchVector
// on the profile the curve came from.
func ArchVectorFromCurve(cfg nmcsim.Config, hitCurve []float64, threads int) ([]float64, error) {
	eqLines := cfg.L1.SizeBytes() / pisa.LineGranularity
	if eqLines < 1 {
		eqLines = 1
	}
	if len(hitCurve) == 0 {
		return nil, fmt.Errorf("napel: empty hit-fraction curve")
	}
	idx := stats.Log2Bucket(uint64(eqLines))
	if idx >= len(hitCurve) {
		idx = len(hitCurve) - 1
	}
	hit := hitCurve[idx]
	if hit < 0 || hit > 1 {
		return nil, fmt.Errorf("napel: hit fraction %g out of [0, 1]", hit)
	}
	coreInOrder := 1.0
	if cfg.Core == nmcsim.OutOfOrder {
		coreInOrder = 0
	}
	return []float64{
		coreInOrder,
		float64(cfg.PEs),
		cfg.FreqGHz,
		float64(cfg.L1.LineSize),
		float64(cfg.L1.Lines),
		float64(cfg.DRAM.Layers),
		log2(float64(cfg.DRAM.SizeBytes)),
		hit,
		1 - hit,
		float64(threads),
	}, nil
}

func log2(x float64) float64 {
	if x <= 0 {
		return 0
	}
	l := 0.0
	for x >= 2 {
		x /= 2
		l++
	}
	return l + x - 1 // linear interpolation between powers keeps it monotone
}

// ProfileKernel runs the PISA characterization of kernel k processing
// input in (sequential trace, shard 0 of 1) under the op budget.
func ProfileKernel(k workload.Kernel, in workload.Input, budget uint64) (*pisa.Profile, error) {
	if err := workload.Validate(k, in); err != nil {
		return nil, err
	}
	p := pisa.NewProfiler()
	tr := trace.NewTracer(budget, p)
	k.Trace(in, 0, 1, tr)
	p.SetCoverage(tr.Coverage())
	return p.Profile(), nil
}

// SimulateKernel runs kernel k with input in on the NMC architecture cfg
// (threads taken from the input).
func SimulateKernel(k workload.Kernel, in workload.Input, cfg nmcsim.Config, budget uint64) (*nmcsim.Result, error) {
	if err := workload.Validate(k, in); err != nil {
		return nil, err
	}
	return nmcsim.Run(cfg, func(shard, nshards int, t *trace.Tracer) {
		k.Trace(in, shard, nshards, t)
	}, in.Threads(), budget)
}

// HostRun estimates host execution of kernel k with input in.
func HostRun(k workload.Kernel, in workload.Input, cfg hostsim.Config, budget uint64) (*hostsim.Result, error) {
	if err := workload.Validate(k, in); err != nil {
		return nil, err
	}
	return hostsim.Run(cfg, func(shard, nshards int, t *trace.Tracer) {
		k.Trace(in, shard, nshards, t)
	}, in.Threads(), budget)
}

// Sample is one training example: an application profile on one
// architecture with the simulator's responses as labels.
type Sample struct {
	App       string
	Input     workload.Input
	ArchIdx   int // index into the options' TrainArchs
	ActivePEs int // PEs that executed work (min of threads, PE count)
	Features  []float64
	IPC       float64 // label: aggregate instructions per cycle
	EPI       float64 // label: energy per instruction, J
	SimTime   time.Duration
}

// TrainingData is the assembled DoE dataset for a set of applications.
type TrainingData struct {
	Samples  []Sample
	Names    []string                 // feature names (395 + NumArchFeatures)
	Profiles map[string]*pisa.Profile // profile per app@input key
	// DoEConfigs counts CCD runs per application (Table 4 "#DoE conf.").
	DoEConfigs map[string]int
	// SimTime accumulates simulation time per application (Table 4
	// "DoE run").
	SimTime map[string]time.Duration
	// ProfileTime accumulates kernel-analysis time per application.
	ProfileTime map[string]time.Duration
	// Quarantined lists the (kernel, input) units that failed every
	// retry attempt and were excluded from Samples, in plan order. Only
	// populated under Options.QuarantineFailures; never persisted by
	// SaveTrainingData, so a resumed run re-executes quarantined units.
	Quarantined []QuarantinedUnit
}

// QuarantinedUnit records one poisoned collection unit: it failed its
// first execution and every configured retry, and contributed no
// samples.
type QuarantinedUnit struct {
	App   string
	Input workload.Input
	Error string
}

// inputKey identifies a (kernel, input) pair.
func inputKey(app string, in workload.Input) string { return app + "|" + in.String() }

// CCDInputs expands the central composite design of kernel k's DoE
// parameters into concrete inputs (with centre replicates included, as
// counted by Table 4).
func CCDInputs(k workload.Kernel) []workload.Input {
	params := k.Params()
	points := doe.CCD(len(params))
	inputs := make([]workload.Input, len(points))
	for i, pt := range points {
		in := workload.Input{}
		for f, p := range params {
			in[p.Name] = p.Levels[int(pt[f])]
		}
		inputs[i] = in
	}
	return inputs
}

// RandomInputs draws the same number of input configurations as the CCD
// would use, but uniformly at random from each parameter's five levels —
// the brute-force sampling baseline the paper's DoE replaces.
func RandomInputs(k workload.Kernel, seed uint64) []workload.Input {
	params := k.Params()
	n := doe.NumRuns(len(params))
	rng := xrand.New(seed ^ hashName(k.Name()))
	inputs := make([]workload.Input, n)
	for i := range inputs {
		in := workload.Input{}
		for _, p := range params {
			in[p.Name] = p.Levels[rng.Intn(doe.NumLevels)]
		}
		inputs[i] = in
	}
	return inputs
}

// hashName gives each kernel its own random stream.
func hashName(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Collect runs phases 1 and 2 of NAPEL training for the given kernels:
// CCD input selection, PISA profiling of each distinct input, and NMC
// simulation of every (input, architecture) pair. The returned dataset
// feeds Predictor training.
//
// Collection runs on the single-pass parallel engine (see engine.go):
// each distinct (kernel, input) unit executes its trace once per shard
// and the recordings replay to every training architecture, with units
// spread across Options.Workers goroutines. Use CollectContext when the
// run should be cancellable.
func Collect(kernels []workload.Kernel, opts Options) (*TrainingData, error) {
	return CollectContext(context.Background(), kernels, opts)
}

// ArchCCDConfigs applies the paper's DoE machinery to the architecture
// axes themselves: a central composite design over PE count, core
// frequency and L1 capacity (five levels each, centred on the Table 3
// reference), yielding the 15 distinct design points of a three-factor
// CCD. Use it as Options.TrainArchs when the prediction target is a
// broad architecture sweep rather than the fixed reference system —
// richer architectural coverage for 3x the simulation budget of
// DefaultTrainArchs.
func ArchCCDConfigs() []nmcsim.Config {
	pes := [5]int{8, 16, 32, 48, 64}
	freqs := [5]float64{0.6, 1.0, 1.25, 1.6, 2.0}
	lines := [5]int{2, 4, 8, 32, 128}

	ref := nmcsim.DefaultConfig()
	points := doe.Distinct(doe.CCD(3))
	cfgs := make([]nmcsim.Config, 0, len(points))
	for _, pt := range points {
		cfg := ref
		cfg.PEs = pes[pt[0]]
		cfg.FreqGHz = freqs[pt[1]]
		cfg.L1.Lines = lines[pt[2]]
		if cfg.L1.Assoc > cfg.L1.Lines {
			cfg.L1.Assoc = cfg.L1.Lines
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// Merge combines two collections into one training set — the
// incremental-DoE workflow: collect the Table 2 suite once, later add
// more applications or architectures and retrain without repeating the
// original simulations. The feature layouts must match.
func Merge(a, b *TrainingData) (*TrainingData, error) {
	if len(a.Names) != len(b.Names) {
		return nil, fmt.Errorf("napel: merging incompatible feature layouts (%d vs %d)", len(a.Names), len(b.Names))
	}
	for i := range a.Names {
		if a.Names[i] != b.Names[i] {
			return nil, fmt.Errorf("napel: feature %d differs: %q vs %q", i, a.Names[i], b.Names[i])
		}
	}
	out := &TrainingData{
		Names:       a.Names,
		Samples:     append(append([]Sample(nil), a.Samples...), b.Samples...),
		Profiles:    map[string]*pisa.Profile{},
		DoEConfigs:  map[string]int{},
		SimTime:     map[string]time.Duration{},
		ProfileTime: map[string]time.Duration{},
	}
	for _, src := range []*TrainingData{a, b} {
		for k, v := range src.Profiles {
			out.Profiles[k] = v
		}
		for k, v := range src.DoEConfigs {
			out.DoEConfigs[k] += v
		}
		for k, v := range src.SimTime {
			out.SimTime[k] += v
		}
		for k, v := range src.ProfileTime {
			out.ProfileTime[k] += v
		}
	}
	return out, nil
}

// SummaryRow describes one application's slice of a training set.
type SummaryRow struct {
	App        string
	Rows       int
	DoEConfigs int
	MinIPC     float64
	MaxIPC     float64
	MinEPI     float64
	MaxEPI     float64
}

// Summary aggregates the collected data per application — the at-a-glance
// sanity check the train CLI prints before fitting.
func (td *TrainingData) Summary() []SummaryRow {
	byApp := map[string]*SummaryRow{}
	var order []string
	for _, s := range td.Samples {
		r, ok := byApp[s.App]
		if !ok {
			r = &SummaryRow{App: s.App, DoEConfigs: td.DoEConfigs[s.App], MinIPC: s.IPC, MinEPI: s.EPI}
			byApp[s.App] = r
			order = append(order, s.App)
		}
		r.Rows++
		if s.IPC < r.MinIPC {
			r.MinIPC = s.IPC
		}
		if s.IPC > r.MaxIPC {
			r.MaxIPC = s.IPC
		}
		if s.EPI < r.MinEPI {
			r.MinEPI = s.EPI
		}
		if s.EPI > r.MaxEPI {
			r.MaxEPI = s.EPI
		}
	}
	out := make([]SummaryRow, 0, len(order))
	for _, app := range order {
		out = append(out, *byApp[app])
	}
	return out
}
