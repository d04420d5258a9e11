package loadgen

import (
	"fmt"
	"os"
	"sync"

	"napel/internal/napel"
	"napel/internal/serve"
)

// Prober verifies served responses against locally computed
// expectations, turning the load generator into a correctness probe:
// a server that is fast but wrong fails the run. Check reports whether
// the sample was actually verified (degraded answers and foreign model
// generations are skipped) and a non-nil error on divergence.
type Prober interface {
	Check(req *serve.PredictRequest, resp *serve.PredictResponse) (checked bool, err error)
}

// ModelProber checks responses against a local copy of the served model
// file: it assembles each request exactly as the server does and
// demands bit-identical predictions. Expectations are memoized per
// request variant, so steady-state probing costs one map hit, not a
// forest evaluation.
type ModelProber struct {
	pred    *napel.Predictor
	version string

	mu   sync.Mutex
	memo map[*serve.PredictRequest]napel.Prediction
}

// NewModelProber loads the model file and records its content version
// (serve.ContentVersion, which the serve registry stamps into responses), so
// probes only judge responses computed under this exact generation. The
// file is read once and both the version and the model come from that
// one buffer: a second read could see a file promoted in between.
func NewModelProber(path string) (*ModelProber, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pred, err := napel.LoadPredictor(data)
	if err != nil {
		return nil, err
	}
	return &ModelProber{
		pred:    pred,
		version: serve.ContentVersion(data),
		memo:    map[*serve.PredictRequest]napel.Prediction{},
	}, nil
}

// Version returns the content hash of the probed model file.
func (p *ModelProber) Version() string { return p.version }

// Check implements Prober. Skips (checked=false) degraded answers —
// they may legitimately come from an older generation — and responses
// from a model version other than the probed file (mid-run hot
// reload).
func (p *ModelProber) Check(req *serve.PredictRequest, resp *serve.PredictResponse) (bool, error) {
	if resp.Degraded || resp.Error != "" || resp.ModelVersion != p.version {
		return false, nil
	}
	p.mu.Lock()
	want, ok := p.memo[req]
	p.mu.Unlock()
	if !ok {
		var err error
		want, err = serve.Expected(p.pred, req)
		if err != nil {
			return false, fmt.Errorf("loadgen: assembling expectation: %w", err)
		}
		p.mu.Lock()
		p.memo[req] = want
		p.mu.Unlock()
	}
	if resp.IPC != want.IPC || resp.EPI != want.EPI || resp.TimeSec != want.TimeSec ||
		resp.EnergyJ != want.EnergyJ || resp.EDP != want.EDP {
		return true, fmt.Errorf("loadgen: served prediction diverges from local model: got ipc=%v epi=%v edp=%v, want ipc=%v epi=%v edp=%v",
			resp.IPC, resp.EPI, resp.EDP, want.IPC, want.EPI, want.EDP)
	}
	return true, nil
}
