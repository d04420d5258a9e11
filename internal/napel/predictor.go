package napel

import (
	"errors"
	"fmt"
	"math"
	"time"

	"napel/internal/ml"
	"napel/internal/ml/ann"
	"napel/internal/ml/mtree"
	"napel/internal/ml/rf"
	"napel/internal/nmcsim"
	"napel/internal/pisa"
)

// Target selects which response a model predicts.
type Target int

const (
	// TargetIPC is aggregate instructions per cycle.
	TargetIPC Target = iota
	// TargetEPI is energy per instruction (Joules).
	TargetEPI
)

// String returns the target name.
func (t Target) String() string {
	if t == TargetEPI {
		return "energy"
	}
	return "performance"
}

// ActivePEs returns how many PEs actually execute work for a run with
// the given thread count: the aggregate-IPC target is normalized by this
// count so the models learn per-PE efficiency (a tight, comparable
// range) instead of a trivial multiplicative factor.
func ActivePEs(threads, pes int) int {
	if threads < pes {
		return threads
	}
	return pes
}

// Dataset assembles the ml view of the collected samples for one target.
// The IPC target is stored normalized per active PE (see ActivePEs);
// Predictor.Predict scales it back.
func (td *TrainingData) Dataset(target Target) *ml.Dataset {
	d := &ml.Dataset{
		X:      make([][]float64, len(td.Samples)),
		Y:      make([]float64, len(td.Samples)),
		Names:  td.Names,
		Groups: make([]string, len(td.Samples)),
	}
	for i, s := range td.Samples {
		d.X[i] = s.Features
		if target == TargetEPI {
			d.Y[i] = s.EPI
		} else {
			d.Y[i] = s.IPC / float64(s.ActivePEs)
		}
		d.Groups[i] = s.App
	}
	return d
}

// RFTuneGrid returns the hyper-parameter candidates searched during
// NAPEL training (Section 2.5's "as many iterations of the
// cross-validation process as hyper-parameter combinations"). All
// candidates learn in log-target space (see ml.LogTrainer).
func RFTuneGrid(numFeatures int) []ml.Trainer {
	mtrys := []int{numFeatures / 3, numFeatures / 10, 20}
	var grid []ml.Trainer
	for _, trees := range []int{60, 120} {
		for _, minLeaf := range []int{1, 3} {
			for _, mtry := range mtrys {
				grid = append(grid, ml.LogTrainer{Inner: rf.Trainer{Params: rf.Params{
					Trees: trees, MinLeaf: minLeaf, MTry: mtry,
				}}})
			}
		}
	}
	return grid
}

// DefaultRFTrainer is the untuned forest used where hyper-parameter
// search would dominate runtime (e.g. inside leave-one-application-out
// loops).
func DefaultRFTrainer() ml.Trainer {
	return ml.LogTrainer{Inner: rf.Trainer{Params: rf.Params{Trees: 80, MinLeaf: 2}}}
}

// DefaultANNTrainer is the Figure 5 artificial-neural-network baseline
// (Ipek et al.): a one-hidden-layer MLP.
func DefaultANNTrainer() ml.Trainer {
	return ml.LogTrainer{Inner: ann.Trainer{Params: ann.Params{}}}
}

// DefaultMTreeTrainer is the Figure 5 linear-model-tree baseline
// (Guo et al.).
func DefaultMTreeTrainer() ml.Trainer {
	return ml.LogTrainer{Inner: mtree.Trainer{Params: mtree.Params{}}}
}

// Predictor holds NAPEL's two trained models (performance and energy).
//
// Concurrency: a Predictor returned by Train/TrainTuned/LoadPredictor is
// immutable, and every prediction method (Predict, PredictAssembled,
// PredictVector, PredictVectorWithUncertainty, OOB) only reads it — the
// underlying forests walk fixed trees and allocate their own scratch.
// All of them are therefore safe for concurrent use from multiple
// goroutines without external locking, which is what lets napel-serve
// fan one loaded model out across a worker pool. Mutating exported
// fields after training/loading voids that guarantee.
type Predictor struct {
	IPC       ml.Model
	EPI       ml.Model
	Names     []string
	TrainTime time.Duration
	// Chosen reports the selected hyper-parameters per target when the
	// predictor was tuned.
	Chosen map[Target]string
	// TuneReport carries the per-candidate cross-validation scores.
	TuneReport map[Target][]ml.TuneResult
}

// Train fits NAPEL's models on the collected data without
// hyper-parameter search.
func Train(td *TrainingData, seed uint64) (*Predictor, error) {
	return TrainWith(td, DefaultRFTrainer(), seed)
}

// TrainWith is Train with a caller-chosen trainer for both targets —
// napel-traind's path for spec-pinned forests, and the active learner's
// for its scoring models.
func TrainWith(td *TrainingData, trainer ml.Trainer, seed uint64) (*Predictor, error) {
	return train(td, seed, trainer)
}

// TrainTuned fits NAPEL's models with the grid hyper-parameter search of
// Section 2.5.
func TrainTuned(td *TrainingData, seed uint64) (*Predictor, error) {
	return train(td, seed, nil)
}

// train fits both targets with trainer, or with the Section 2.5 grid
// search when trainer is nil.
func train(td *TrainingData, seed uint64, trainer ml.Trainer) (*Predictor, error) {
	if len(td.Samples) == 0 {
		return nil, errors.New("napel: no training samples")
	}
	p := &Predictor{
		Names:      td.Names,
		Chosen:     map[Target]string{},
		TuneReport: map[Target][]ml.TuneResult{},
	}
	t0 := time.Now()
	for _, target := range []Target{TargetIPC, TargetEPI} {
		d := td.Dataset(target)
		var model ml.Model
		var err error
		if trainer == nil {
			var chosen ml.Trainer
			var report []ml.TuneResult
			model, chosen, report, err = ml.Tune(RFTuneGrid(d.NumFeatures()), d, 3, seed)
			if err == nil {
				p.Chosen[target] = chosen.Name()
				p.TuneReport[target] = report
			}
		} else {
			model, err = trainer.Train(d, seed)
			p.Chosen[target] = trainer.Name()
		}
		if err != nil {
			return nil, fmt.Errorf("napel: training %s model: %w", target, err)
		}
		if target == TargetEPI {
			p.EPI = model
		} else {
			p.IPC = model
		}
	}
	p.TrainTime = time.Since(t0)
	return p, nil
}

// Prediction is NAPEL's estimate for one (application, architecture)
// point.
type Prediction struct {
	IPC         float64
	EPI         float64 // J per instruction
	TotalInstrs float64 // I_offload from the profile
	TimeSec     float64 // Π_NMC = I_offload / (IPC · f_core)
	EnergyJ     float64
	EDP         float64
}

// Predict estimates performance and energy of the profiled application
// on architecture cfg with the given thread count (Section 2.5's
// Π_NMC = I_offload/(IPC·f_core), energy = EPI·I_offload).
func (p *Predictor) Predict(prof *pisa.Profile, cfg nmcsim.Config, threads int) Prediction {
	feat := append(append([]float64(nil), prof.Vector()...), ArchVector(cfg, prof, threads)...)
	return p.PredictAssembled(feat, prof.TotalInstrs(), cfg, threads)
}

// PredictAssembled is Predict for callers that already hold the full
// feature vector (profile ⊕ ArchVector) and the profile's extrapolated
// total instruction count — napel-serve's path, where the profile
// arrives in wire form rather than as a *pisa.Profile. Given the same
// vector and totals it returns bit-identical results to Predict.
func (p *Predictor) PredictAssembled(feat []float64, totalInstrs float64, cfg nmcsim.Config, threads int) Prediction {
	pred := Prediction{
		IPC:         p.IPC.Predict(feat) * float64(ActivePEs(threads, cfg.PEs)),
		EPI:         p.EPI.Predict(feat),
		TotalInstrs: totalInstrs,
	}
	if pred.IPC > 0 {
		pred.TimeSec = pred.TotalInstrs / (pred.IPC * cfg.FreqGHz * 1e9)
	}
	if pred.EPI > 0 {
		pred.EnergyJ = pred.EPI * pred.TotalInstrs
	}
	pred.EDP = pred.EnergyJ * pred.TimeSec
	return pred
}

// PredictVector estimates both targets for a pre-assembled feature
// vector (profile ⊕ architecture), as used when sweeping many
// architecture points for one profile. activePEs is ActivePEs(threads,
// pes) for the swept point.
func (p *Predictor) PredictVector(feat []float64, activePEs int) (ipc, epi float64) {
	return p.IPC.Predict(feat) * float64(activePEs), p.EPI.Predict(feat)
}

// PredictVectorWithUncertainty is PredictVector plus a multiplicative
// uncertainty factor per target, derived from the spread of the
// individual trees in log space: the truth is likely within
// [value/factor, value*factor]. A factor near 1 means the forest is
// confident (interpolating); large factors flag extrapolation. Returns
// factors of 1 when the underlying models do not expose tree spread.
func (p *Predictor) PredictVectorWithUncertainty(feat []float64, activePEs int) (ipc, ipcFactor, epi, epiFactor float64) {
	ipc, ipcFactor = predictSpread(p.IPC, feat)
	epi, epiFactor = predictSpread(p.EPI, feat)
	ipc *= float64(activePEs)
	return ipc, ipcFactor, epi, epiFactor
}

// predictSpread evaluates a log-target forest with tree spread.
func predictSpread(m ml.Model, feat []float64) (value, factor float64) {
	inner, lo, hi, ok := ml.UnwrapLogModel(m)
	if !ok {
		return m.Predict(feat), 1
	}
	forest, ok := inner.(*rf.Forest)
	if !ok {
		return m.Predict(feat), 1
	}
	mean, std := forest.PredictWithSpread(feat)
	if mean < lo {
		mean = lo
	}
	if mean > hi {
		mean = hi
	}
	return math.Exp(mean), math.Exp(std)
}

// OOB returns the out-of-bag mean relative errors of the two underlying
// forests (in log-target space), the training-time validation signal a
// user checks before trusting a freshly trained model. Either value is
// -1 when unavailable: for a model that is not a forest, and for one
// read by LoadPredictor, since a model file does not store it.
func (p *Predictor) OOB() (ipc, epi float64) {
	return modelOOB(p.IPC), modelOOB(p.EPI)
}

func modelOOB(m ml.Model) float64 {
	inner, _, _, ok := ml.UnwrapLogModel(m)
	if !ok {
		return -1
	}
	forest, ok := inner.(*rf.Forest)
	if !ok {
		return -1
	}
	return forest.OOBMRE()
}
