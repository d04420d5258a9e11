package collectd

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"napel/internal/ml"
	"napel/internal/ml/rf"
	"napel/internal/napel"
	"napel/internal/obs"
	"napel/internal/workload"
	"napel/internal/xrand"
)

// This file is the active-learning scheduler: instead of simulating the
// full CCD pool up front, train on a small seed design and repeatedly
// simulate only the candidates the current ensemble disagrees on most
// (per-tree prediction variance, Forest.PredictWithVariance). Profiling
// is cheap — the paper's central asymmetry — so every candidate's
// feature vector is known before any simulation; only the labels cost.
// All stochastic choices draw from xrand streams seeded by
// ActiveConfig.Seed, making the selection sequence a pure function of
// the seed: two runs select identical units in identical order.

// ActiveConfig tunes ActiveCollect. The zero value picks workable
// defaults relative to the pool size.
type ActiveConfig struct {
	// Seed drives the seed-design draw and all tie-breaking; the whole
	// selection sequence is a pure function of it.
	Seed uint64
	// SeedUnits is the size of the round-0 random seed design
	// (default: a quarter of the pool, at least 2).
	SeedUnits int
	// RoundUnits is how many top-uncertainty units each subsequent
	// round simulates (default: an eighth of the pool, at least 1).
	RoundUnits int
	// MaxUnits caps the total units simulated, quarantined included
	// (default: the full pool).
	MaxUnits int
	// TargetMRE, when > 0, stops the loop once the holdout MRE
	// (HoldoutMetrics.Combined) reaches it.
	TargetMRE float64
	// HoldoutFrac is the held-out fraction of the per-round evaluation
	// (default 0.25).
	HoldoutFrac float64
	// Trainer builds the scoring/evaluation models (default
	// napel.DefaultRFTrainer). Its model must unwrap to an rf.Forest.
	Trainer ml.Trainer
	// Logf, when non-nil, receives one line per round.
	Logf func(format string, args ...any)
	// OnRound, when non-nil, observes every completed round — the hook
	// napel-traind uses to surface progress on the job record.
	OnRound func(RoundReport)
}

// RoundReport describes one completed active-learning round.
type RoundReport struct {
	// Round numbers rounds from 0 (the seed design).
	Round int `json:"round"`
	// Selected lists the unit keys simulated this round, in selection
	// order (seed draw order for round 0, descending uncertainty after).
	Selected []string `json:"selected"`
	// MeanUncertainty / MaxUncertainty summarize the candidate scores
	// this round chose from (0 for the seed round — nothing is scored
	// before the first model exists).
	MeanUncertainty float64 `json:"mean_uncertainty"`
	MaxUncertainty  float64 `json:"max_uncertainty"`
	// HoldoutMRE is HoldoutMetrics.Combined on everything collected so
	// far; NaN when the dataset is still too small to split.
	HoldoutMRE float64 `json:"holdout_mre"`
	// UnitsSimulated counts units simulated so far, quarantined included.
	UnitsSimulated int `json:"units_simulated"`
	// PoolRemaining counts candidates not yet simulated.
	PoolRemaining int `json:"pool_remaining"`
}

// ActiveReport is the full trajectory of one active collection.
type ActiveReport struct {
	PoolSize       int           `json:"pool_size"`
	UnitsSimulated int           `json:"units_simulated"`
	Quarantined    int           `json:"quarantined"`
	FinalMRE       float64       `json:"final_mre"`
	Rounds         []RoundReport `json:"rounds"`
}

// candidate is one pool unit's key with its precomputed
// per-architecture feature vectors.
type candidate struct {
	key   string
	feats [][]float64
}

// ActiveCollect runs the uncertainty-driven collection loop over the
// kernels' full CCD pool and assembles everything simulated into a
// TrainingData (deterministic plan order, as always). Each round is a
// napel.CollectResumeContext of the previous round's dataset that
// executes only the round's selection, so opts is honored exactly as in
// napel.Collect — Workers, UnitRetries, QuarantineFailures, and in
// particular Executor, so the rounds' simulations can be leased out to
// a worker fleet while scoring stays coordinator-side, and Metrics,
// which receives the napel_collectd_* round and uncertainty series
// beside the rounds' napel_engine_* ones. The dataset's Quarantined
// lists every unit quarantined in any round.
func ActiveCollect(ctx context.Context, kernels []workload.Kernel, opts napel.Options, cfg ActiveConfig) (*napel.TrainingData, *ActiveReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pool, err := napel.PlanUnits(kernels, opts)
	if err != nil {
		return nil, nil, err
	}
	if len(pool) == 0 {
		return nil, nil, fmt.Errorf("collectd: empty candidate pool")
	}
	if cfg.SeedUnits <= 0 {
		cfg.SeedUnits = max(2, len(pool)/4)
	}
	if cfg.RoundUnits <= 0 {
		cfg.RoundUnits = max(1, len(pool)/8)
	}
	if cfg.MaxUnits <= 0 || cfg.MaxUnits > len(pool) {
		cfg.MaxUnits = len(pool)
	}
	if cfg.SeedUnits > cfg.MaxUnits {
		cfg.SeedUnits = cfg.MaxUnits
	}
	if cfg.HoldoutFrac <= 0 {
		cfg.HoldoutFrac = 0.25
	}
	if cfg.Trainer == nil {
		cfg.Trainer = napel.DefaultRFTrainer()
	}
	ao := newActiveObs(opts.Metrics)
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	actx, aspan := obs.StartSpan(ctx, "collectd.active")
	aspan.SetAttrInt("pool", int64(len(pool)))
	defer aspan.End()

	cands, err := profilePool(actx, kernels, pool, opts)
	if err != nil {
		return nil, nil, err
	}

	report := &ActiveReport{PoolSize: len(pool)}
	var td *napel.TrainingData
	remaining := make([]int, len(pool))
	for i := range remaining {
		remaining[i] = i
	}

	// Round 0: a uniform seed design drawn from the selection stream.
	rng := xrand.New(cfg.Seed)
	sel := append([]int(nil), rng.Perm(len(pool))[:cfg.SeedUnits]...)

	simulated := 0
	var meanU, maxU float64
	for round := 0; ; round++ {
		rctx, rspan := obs.StartSpan(actx, "collectd.round")
		rspan.SetAttrInt("round", int64(round))
		rspan.SetAttrInt("selected", int64(len(sel)))
		selKeys := make([]string, len(sel))
		selSet := make(map[string]bool, len(sel))
		for i, idx := range sel {
			selKeys[i] = cands[idx].key
			selSet[selKeys[i]] = true
		}
		td, err = napel.CollectResumeContext(rctx, kernels, opts, &napel.CollectCheckpoint{Prior: td, Select: selSet})
		rspan.SetError(err)
		rspan.End()
		if err != nil {
			return nil, nil, err
		}
		report.Quarantined = len(td.Quarantined)
		simulated += len(sel)
		remaining = removeIndices(remaining, sel)

		mre := math.NaN()
		if hm, herr := napel.EvaluateHoldout(td, cfg.Trainer, cfg.HoldoutFrac, cfg.Seed); herr == nil {
			mre = hm.Combined()
		}
		rr := RoundReport{
			Round:           round,
			Selected:        selKeys,
			MeanUncertainty: meanU,
			MaxUncertainty:  maxU,
			HoldoutMRE:      mre,
			UnitsSimulated:  simulated,
			PoolRemaining:   len(remaining),
		}
		report.Rounds = append(report.Rounds, rr)
		report.UnitsSimulated = simulated
		report.FinalMRE = mre
		ao.round(len(sel), meanU, maxU, mre, len(remaining))
		if cfg.OnRound != nil {
			cfg.OnRound(rr)
		}
		logf("collectd: round %d simulated %d units (total %d/%d), holdout MRE %.4f",
			round, len(sel), simulated, cfg.MaxUnits, mre)

		// Stop rules: pool dry, budget spent, or target reached.
		if len(remaining) == 0 || simulated >= cfg.MaxUnits {
			break
		}
		if cfg.TargetMRE > 0 && !math.IsNaN(mre) && mre <= cfg.TargetMRE {
			logf("collectd: target MRE %.4f reached after %d units; stopping", cfg.TargetMRE, simulated)
			break
		}

		// Score the survivors by ensemble disagreement and take the top
		// slice. Ties break on pool order, keeping selection total.
		fIPC, fEPI, err := trainScorers(td, cfg.Trainer, cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		scores := make(map[int]float64, len(remaining))
		meanU, maxU = 0, 0
		for _, idx := range remaining {
			var s float64
			for _, x := range cands[idx].feats {
				_, vi := fIPC.PredictWithVariance(x)
				_, ve := fEPI.PredictWithVariance(x)
				s += vi + ve
			}
			s /= float64(len(cands[idx].feats))
			scores[idx] = s
			meanU += s
			if s > maxU {
				maxU = s
			}
		}
		meanU /= float64(len(remaining))

		k := cfg.RoundUnits
		if left := cfg.MaxUnits - simulated; k > left {
			k = left
		}
		if k > len(remaining) {
			k = len(remaining)
		}
		order := append([]int(nil), remaining...)
		sort.SliceStable(order, func(a, b int) bool {
			sa, sb := scores[order[a]], scores[order[b]]
			if sa != sb {
				return sa > sb
			}
			return order[a] < order[b]
		})
		sel = order[:k]
	}
	return td, report, nil
}

// profilePool profiles every candidate (coordinator-side, concurrent,
// cheap relative to simulation) on the given kernels and precomputes
// its per-architecture feature vectors via the same construction
// assembly uses. Once ctx ends no further profile starts, and the pool
// returns only after the profiles in flight finish.
func profilePool(ctx context.Context, kernels []workload.Kernel, pool []napel.UnitSpec, opts napel.Options) ([]*candidate, error) {
	byName := make(map[string]workload.Kernel, len(kernels))
	for _, k := range kernels {
		if _, ok := byName[k.Name()]; !ok {
			byName[k.Name()] = k
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cands := make([]*candidate, len(pool))
	errs := make([]error, len(pool))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(pool)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(pool) {
					return
				}
				cands[i], errs[i] = profileCandidate(byName[pool[i].Kernel], pool[i])
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cands, nil
}

// profileCandidate profiles one pool unit with kernel k.
func profileCandidate(k workload.Kernel, spec napel.UnitSpec) (*candidate, error) {
	prof, err := napel.ProfileKernel(k, spec.Input, spec.ProfileBudget)
	if err != nil {
		return nil, fmt.Errorf("collectd: profiling candidate %s: %w", spec.Key, err)
	}
	base := prof.Vector()
	threads := spec.Input.Threads()
	feats := make([][]float64, len(spec.TrainArchs))
	for ai, arch := range spec.TrainArchs {
		x := make([]float64, 0, len(base)+napel.NumArchFeatures)
		x = append(x, base...)
		x = append(x, napel.ArchVector(arch, prof, threads)...)
		feats[ai] = x
	}
	return &candidate{key: spec.Key, feats: feats}, nil
}

// trainScorers fits the two target models on everything collected so
// far and unwraps them to raw forests for variance scoring.
func trainScorers(td *napel.TrainingData, trainer ml.Trainer, seed uint64) (fIPC, fEPI *rf.Forest, err error) {
	p, err := napel.TrainWith(td, trainer, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("collectd: training scorers: %w", err)
	}
	if fIPC, err = scoreForest(p.IPC); err != nil {
		return nil, nil, err
	}
	if fEPI, err = scoreForest(p.EPI); err != nil {
		return nil, nil, err
	}
	return fIPC, fEPI, nil
}

// scoreForest unwraps a trained model to the rf.Forest whose per-tree
// variance is the uncertainty signal.
func scoreForest(m ml.Model) (*rf.Forest, error) {
	if inner, _, _, ok := ml.UnwrapLogModel(m); ok {
		m = inner
	}
	f, ok := m.(*rf.Forest)
	if !ok {
		return nil, fmt.Errorf("collectd: active learning needs a random-forest model, got %T", m)
	}
	return f, nil
}

// removeIndices drops the taken indices from remaining, preserving
// order.
func removeIndices(remaining, taken []int) []int {
	drop := make(map[int]bool, len(taken))
	for _, i := range taken {
		drop[i] = true
	}
	out := remaining[:0]
	for _, i := range remaining {
		if !drop[i] {
			out = append(out, i)
		}
	}
	return out
}
