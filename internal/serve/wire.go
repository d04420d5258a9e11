// Package serve is napel-serve: a long-running HTTP/JSON front end over
// trained NAPEL predictors. It turns the one-shot CLI prediction flow
// into the paper's headline use case at service scale — millisecond
// predictions replacing hours of cycle-level NMC simulation — with a
// versioned model registry (atomic hot reload), single and batched
// prediction, the Figure 6/7 NMC-suitability verdict, an LRU response
// cache, Prometheus-style metrics, backpressure limits and graceful
// drain. Everything is stdlib-only, like the rest of the repository.
//
// Wire contract: clients ship the 395-feature PISA profile (as produced
// by `napel export-profile`), the NMC architecture point, and a thread
// count; the server assembles the same feature vector the in-process
// path uses and returns bit-identical predictions. The server reads
// request bodies with its own one-pass decoder (decode.go), which
// accepts exactly what encoding/json accepts into PredictRequest and
// SuitabilityRequest; the types here stay the contract's definition.
package serve

import (
	"fmt"
	"math"
	"math/bits"

	"napel/internal/napel"
	"napel/internal/nmcsim"
	"napel/internal/pisa"
)

// WireProfile is the portable form of a pisa.Profile: the named feature
// vector plus the few scalars prediction needs that are not part of the
// model input (extrapolated instruction total) or that depend on the
// architecture only through a tabulated curve (hit fractions).
type WireProfile struct {
	SimInstrs      uint64  `json:"sim_instrs,omitempty"`
	Coverage       float64 `json:"coverage,omitempty"`
	TotalInstrs    float64 `json:"total_instrs"`
	FootprintBytes float64 `json:"footprint_bytes,omitempty"`
	// Features maps pisa feature names to values; all 395 must be
	// present and no unknown names are accepted.
	Features map[string]float64 `json:"features"`
	// HitCurve is pisa.Profile.HitFractionCurve: estimated hit fraction
	// at 2^i cache lines, used to derive the architectural
	// cache/DRAM-access-fraction features server-side.
	HitCurve []float64 `json:"hit_curve"`
}

// NewWireProfile converts a profiled kernel into its wire form.
func NewWireProfile(p *pisa.Profile) WireProfile {
	names := pisa.FeatureNames()
	vec := p.Vector()
	feats := make(map[string]float64, len(names))
	for i, n := range names {
		feats[n] = vec[i]
	}
	return WireProfile{
		SimInstrs:      p.SimInstrs(),
		Coverage:       p.Coverage(),
		TotalInstrs:    p.TotalInstrs(),
		FootprintBytes: p.FootprintBytes(),
		Features:       feats,
		HitCurve:       p.HitFractionCurve(),
	}
}

// vec converts the named features into pisa's canonical layout, the
// form the request decoder fills straight from a body.
func (wp *WireProfile) vec() profileVec {
	p := profileVec{total: wp.TotalInstrs, hitCurve: wp.HitCurve}
	for i, n := range pisa.FeatureNames() {
		if v, ok := wp.Features[n]; ok {
			p.set(i, v)
		}
	}
	p.unknown = len(wp.Features) - p.keys()
	return p
}

// profileVec is a wire profile as prediction reads it: the feature
// values in pisa's canonical order, each with a presence bit, in place
// of the name-keyed map. The request decoder writes a body's values
// straight into it and the map form converts into it, so both meet the
// same check.
type profileVec struct {
	// feat holds pisa.NumFeatures values once the first is set, with
	// capacity for the architecture features assemble appends.
	feat    []float64
	present [(pisa.NumFeatures + 63) / 64]uint64
	// unknown counts the feature names pisa does not define: distinct
	// ones in the map form, every occurrence in a decoded body.
	unknown  int
	total    float64
	hitCurve []float64
}

func (p *profileVec) set(i int, v float64) {
	if p.feat == nil {
		p.feat = make([]float64, pisa.NumFeatures, pisa.NumFeatures+napel.NumArchFeatures)
	}
	p.feat[i] = v
	p.present[i/64] |= 1 << (i % 64)
}

// keys is the number of feature names, known or not: the length of
// the map the profile's features decode into, unless a decoded body
// repeats an unknown name.
func (p *profileVec) keys() int {
	n := p.unknown
	for _, w := range p.present {
		n += bits.OnesCount64(w)
	}
	return n
}

// check returns the profile's 395-entry feature vector, rejecting
// missing, extra, or non-finite entries and an instruction total that
// is not positive and finite.
func (p *profileVec) check() ([]float64, error) {
	names := pisa.FeatureNames()
	if n := p.keys(); n != len(names) {
		return nil, fmt.Errorf("profile has %d features, want %d", n, len(names))
	}
	for i, n := range names {
		if p.present[i/64]&(1<<(i%64)) == 0 {
			return nil, fmt.Errorf("profile is missing feature %q", n)
		}
		if v := p.feat[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("feature %q is not finite", n)
		}
	}
	if p.total <= 0 || math.IsNaN(p.total) || math.IsInf(p.total, 0) {
		return nil, fmt.Errorf("total_instrs %g must be positive and finite", p.total)
	}
	return p.feat[:len(names)], nil
}

// WireArch selects an NMC architecture point. Zero-valued fields keep
// the Table 3 reference system's value, so an empty object is exactly
// the paper's baseline.
type WireArch struct {
	PEs           int     `json:"pes,omitempty"`
	FreqGHz       float64 `json:"freq_ghz,omitempty"`
	Core          string  `json:"core,omitempty"` // "inorder" (default) or "ooo"
	L1LineBytes   int     `json:"l1_line_bytes,omitempty"`
	L1Lines       int     `json:"l1_lines,omitempty"`
	L1Assoc       int     `json:"l1_assoc,omitempty"`
	DRAMLayers    int     `json:"dram_layers,omitempty"`
	DRAMSizeBytes uint64  `json:"dram_size_bytes,omitempty"`
}

// config resolves the overrides against the Table 3 baseline and
// validates the result.
func (wa WireArch) config() (nmcsim.Config, error) {
	cfg := nmcsim.DefaultConfig()
	switch wa.Core {
	case "", "inorder":
	case "ooo":
		cfg = nmcsim.OoOConfig()
	default:
		return cfg, fmt.Errorf("arch core %q must be \"inorder\" or \"ooo\"", wa.Core)
	}
	if wa.PEs > 0 {
		cfg.PEs = wa.PEs
	}
	if wa.FreqGHz > 0 {
		cfg.FreqGHz = wa.FreqGHz
	}
	if wa.L1LineBytes > 0 {
		cfg.L1.LineSize = wa.L1LineBytes
	}
	if wa.L1Lines > 0 {
		cfg.L1.Lines = wa.L1Lines
		if cfg.L1.Assoc > wa.L1Lines {
			cfg.L1.Assoc = wa.L1Lines
		}
	}
	if wa.L1Assoc > 0 {
		cfg.L1.Assoc = wa.L1Assoc
	}
	if wa.DRAMLayers > 0 {
		cfg.DRAM.Layers = wa.DRAMLayers
	}
	if wa.DRAMSizeBytes > 0 {
		cfg.DRAM.SizeBytes = wa.DRAMSizeBytes
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// PredictRequest is the body of POST /v1/predict — either one object or
// a JSON array of them (a batch).
type PredictRequest struct {
	// Model names a registry entry; empty selects the default model.
	Model   string      `json:"model,omitempty"`
	Profile WireProfile `json:"profile"`
	Arch    WireArch    `json:"arch"`
	// Threads is the run's hardware-thread count; 0 means one thread
	// per PE of the resolved architecture.
	Threads int `json:"threads,omitempty"`
}

// PredictResponse mirrors napel.Prediction plus serving metadata. In
// batch responses a failed item carries Error and zero values.
type PredictResponse struct {
	Model        string  `json:"model,omitempty"`
	ModelVersion string  `json:"model_version,omitempty"`
	IPC          float64 `json:"ipc"`
	EPI          float64 `json:"epi"`
	TotalInstrs  float64 `json:"total_instrs"`
	TimeSec      float64 `json:"time_sec"`
	EnergyJ      float64 `json:"energy_j"`
	EDP          float64 `json:"edp"`
	Cached       bool    `json:"cached"`
	// Degraded marks a last-good answer served because the model
	// evaluation failed. The value may have been computed under an older
	// generation of the same model. With no model loaded there is no
	// last-good answer: the request gets 404.
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
}

// WireHost carries the host-side (e.g. POWER9) execution numbers the
// NMC estimate is judged against in the suitability use case. EDP may
// be given directly or derived as energy × time.
type WireHost struct {
	TimeSec float64 `json:"time_sec,omitempty"`
	EnergyJ float64 `json:"energy_j,omitempty"`
	EDP     float64 `json:"edp,omitempty"`
}

func (wh WireHost) edp() (float64, error) {
	edp := wh.EDP
	if edp == 0 {
		edp = wh.EnergyJ * wh.TimeSec
	}
	if edp <= 0 || math.IsNaN(edp) || math.IsInf(edp, 0) {
		return 0, fmt.Errorf("host EDP must be positive: give host.edp or host.energy_j and host.time_sec")
	}
	return edp, nil
}

// SuitabilityRequest is the body of POST /v1/suitability: the Figure
// 6/7 use case — should this kernel be offloaded to NMC?
type SuitabilityRequest struct {
	PredictRequest
	Host WireHost `json:"host"`
}

// SuitabilityResponse reports the predicted-NMC vs host EDP verdict.
type SuitabilityResponse struct {
	NMC          PredictResponse `json:"nmc"`
	HostEDP      float64         `json:"host_edp"`
	EDPReduction float64         `json:"edp_reduction"`
	// Verdict is "offload" when NMC wins (reduction > 1), else "host".
	Verdict string `json:"verdict"`
}

// Assemble resolves the request into the exact model input the server
// would evaluate: the 395+arch feature vector, the extrapolated
// instruction total, the validated architecture point and the resolved
// thread count. It is the prober hook behind napel-loadgen's
// correctness checks — a client holding the same model file can compute
// the prediction the server must return, bit for bit.
func (req *PredictRequest) Assemble() (feat []float64, totalInstrs float64, cfg nmcsim.Config, threads int, err error) {
	return req.assemble()
}

// Expected computes the prediction a server holding p must serve for
// req (excluding degraded answers, which may come from an older
// generation). Served and expected values are bit-identical because
// both sides run PredictAssembled over the same assembled vector.
func Expected(p *napel.Predictor, req *PredictRequest) (napel.Prediction, error) {
	feat, totalInstrs, cfg, threads, err := req.assemble()
	if err != nil {
		return napel.Prediction{}, err
	}
	return p.PredictAssembled(feat, totalInstrs, cfg, threads), nil
}

// input is a predict request as prediction reads it: what the request
// decoder reads from a body, or a PredictRequest converted by assemble.
type input struct {
	model   string
	prof    profileVec
	arch    WireArch
	threads int
}

// assemble turns a request into the model-ready feature vector and the
// resolved run context.
func (req *PredictRequest) assemble() (feat []float64, totalInstrs float64, cfg nmcsim.Config, threads int, err error) {
	in := input{model: req.Model, prof: req.Profile.vec(), arch: req.Arch, threads: req.Threads}
	return in.assemble()
}

// assemble is the one validation and assembly path, shared by predict,
// suitability, Assemble and Expected. The returned vector aliases
// in.prof.feat.
func (in *input) assemble() (feat []float64, totalInstrs float64, cfg nmcsim.Config, threads int, err error) {
	profVec, err := in.prof.check()
	if err != nil {
		return nil, 0, cfg, 0, err
	}
	cfg, err = in.arch.config()
	if err != nil {
		return nil, 0, cfg, 0, err
	}
	threads = in.threads
	if threads == 0 {
		threads = cfg.PEs
	}
	if threads < 0 {
		return nil, 0, cfg, 0, fmt.Errorf("threads %d must be positive", threads)
	}
	arch, err := napel.ArchVectorFromCurve(cfg, in.prof.hitCurve, threads)
	if err != nil {
		return nil, 0, cfg, 0, err
	}
	feat = append(profVec, arch...)
	return feat, in.prof.total, cfg, threads, nil
}
