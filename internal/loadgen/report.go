package loadgen

import (
	"fmt"
	"runtime"
	"time"

	"napel/internal/obs"
	"napel/internal/stats"
)

// ReportSchema versions the report's wire format so tooling can refuse
// files it does not understand. v2 removed four v1 fields with the
// open-loop mode and the trajectory key.
const ReportSchema = "napel-bench/v2"

// Quantiles summarizes one latency histogram in milliseconds.
type Quantiles struct {
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MeanMs float64 `json:"mean_ms"`
	MinMs  float64 `json:"min_ms"`
	MaxMs  float64 `json:"max_ms"`
}

func quantilesOf(h *stats.LogHist) Quantiles {
	const ms = 1e3
	return Quantiles{
		P50Ms:  h.Quantile(0.50) * ms,
		P90Ms:  h.Quantile(0.90) * ms,
		P99Ms:  h.Quantile(0.99) * ms,
		P999Ms: h.Quantile(0.999) * ms,
		MeanMs: h.Mean() * ms,
		MinMs:  h.Min() * ms,
		MaxMs:  h.Max() * ms,
	}
}

// EndpointReport is one traffic class's results.
type EndpointReport struct {
	Endpoint string `json:"endpoint"`
	Path     string `json:"path"`
	Issued   uint64 `json:"issued"`
	// OK counts 2xx requests (degraded and cached answers included —
	// they are split out below, not subtracted here).
	OK           uint64 `json:"ok"`
	Errors       uint64 `json:"errors"`
	Backpressure uint64 `json:"backpressure"`
	// Degraded counts degraded:true answers (per item for batches).
	Degraded uint64 `json:"degraded"`
	Cached   uint64 `json:"cached"`
	// ItemErrors counts per-item errors inside otherwise-200 batch
	// responses.
	ItemErrors     uint64    `json:"item_errors,omitempty"`
	Probed         uint64    `json:"probed"`
	Mismatches     uint64    `json:"mismatches"`
	RequestsPerSec float64   `json:"requests_per_sec"`
	Latency        Quantiles `json:"latency"`
	// Histogram is the full latency sketch (seconds), mergeable across
	// runs for trajectory analysis.
	Histogram    *stats.LogHist `json:"histogram,omitempty"`
	ErrorExample string         `json:"error_example,omitempty"`
}

// ServerStats are /metrics deltas scraped around the run, attributing
// server-side work to the generated load.
type ServerStats struct {
	RequestsTotal    float64 `json:"requests_total"`
	PredictionsTotal float64 `json:"predictions_total"`
	CacheHits        float64 `json:"cache_hits"`
	CacheMisses      float64 `json:"cache_misses"`
	CacheHitRatio    float64 `json:"cache_hit_ratio"`
	DegradedTotal    float64 `json:"degraded_total"`
	RejectedTotal    float64 `json:"rejected_total"`
	ChaosInjected    float64 `json:"chaos_injected,omitempty"`
	// Runtime attribution from the napel_process_* series.
	AllocBytes           float64 `json:"alloc_bytes"`
	Mallocs              float64 `json:"mallocs"`
	GCCycles             float64 `json:"gc_cycles"`
	GCPauseSeconds       float64 `json:"gc_pause_seconds"`
	AllocBytesPerRequest float64 `json:"alloc_bytes_per_request"`
	MallocsPerRequest    float64 `json:"mallocs_per_request"`
}

// SLOLimits configures the pass/fail gates.
type SLOLimits struct {
	// MaxErrorRate bounds hard errors / issued (backpressure excluded);
	// negative disables, and 0 is a real, strict limit.
	MaxErrorRate float64
	// ExpectDegraded requires at least one degraded answer — the
	// chaos-under-load gate proving degraded-mode serving actually
	// engaged (a chaos run where nothing degrades proves nothing).
	ExpectDegraded bool
}

// Verdict is one evaluated SLO gate.
type Verdict struct {
	Name   string  `json:"name"`
	Limit  float64 `json:"limit"`
	Actual float64 `json:"actual"`
	Pass   bool    `json:"pass"`
}

func (v Verdict) String() string {
	state := "PASS"
	if !v.Pass {
		state = "FAIL"
	}
	return fmt.Sprintf("%s %s: actual %.4g vs limit %.4g", state, v.Name, v.Actual, v.Limit)
}

// ProbeReport summarizes the correctness probing.
type ProbeReport struct {
	Enabled      bool   `json:"enabled"`
	ModelVersion string `json:"model_version,omitempty"`
	Checked      uint64 `json:"checked"`
	Mismatches   uint64 `json:"mismatches"`
	Example      string `json:"example,omitempty"`
}

// Report is the machine-readable run report: enough context to replay
// the run (seed, mix, shape) plus the measured results and SLO verdicts.
type Report struct {
	Schema    string `json:"schema"`
	GitRev    string `json:"git_rev,omitempty"`
	StartedAt string `json:"started_at,omitempty"`

	Target string `json:"target"`
	// Targets lists every base URL the schedule round-robined across
	// (omitted for classic single-target runs); Topology is a free-form
	// stamp of the serving shape behind them, e.g. "gate+3x serve".
	Targets        []string `json:"targets,omitempty"`
	Topology       string   `json:"topology,omitempty"`
	GOMAXPROCS     int      `json:"gomaxprocs,omitempty"`
	Seed           uint64   `json:"seed"`
	Mix            string   `json:"mix"`
	Keyspace       int      `json:"keyspace"`
	BatchSize      int      `json:"batch_size"`
	Workers        int      `json:"workers,omitempty"`
	ThinkMS        float64  `json:"think_ms,omitempty"`
	Requested      uint64   `json:"requested,omitempty"`
	ScheduleDigest string   `json:"schedule_digest"`
	BodyDigest     string   `json:"body_digest"`

	DurationSeconds float64 `json:"duration_seconds"`
	Interrupted     bool    `json:"interrupted,omitempty"`

	Issued         uint64  `json:"issued"`
	OK             uint64  `json:"ok"`
	Errors         uint64  `json:"errors"`
	Backpressure   uint64  `json:"backpressure"`
	Degraded       uint64  `json:"degraded"`
	ErrorRate      float64 `json:"error_rate"`
	RequestsPerSec float64 `json:"requests_per_sec"`

	Overall   Quantiles        `json:"overall_latency"`
	Endpoints []EndpointReport `json:"endpoints"`

	Probe ProbeReport `json:"probe"`

	Server      *ServerStats `json:"server,omitempty"`
	ScrapeError string       `json:"scrape_error,omitempty"`

	SLO     []Verdict `json:"slo,omitempty"`
	SLOPass bool      `json:"slo_pass"`

	// slo keeps the configured limits for Evaluate; not serialized.
	slo         SLOLimits `json:"-"`
	probeActive bool      `json:"-"`
}

// buildReport folds the merged tallies into the wire report. Evaluate
// must be called afterwards to fill the SLO verdicts.
func buildReport(cfg Config, gen *Generator, t *tally, elapsed time.Duration, interrupted bool) *Report {
	rep := &Report{
		Schema:          ReportSchema,
		Target:          cfg.Target,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Seed:            cfg.Synth.Seed,
		Mix:             cfg.Mix.String(),
		Keyspace:        gen.cfg.Keyspace,
		BatchSize:       gen.cfg.BatchSize,
		Workers:         cfg.Workers,
		ThinkMS:         float64(cfg.Think) / float64(time.Millisecond),
		Requested:       cfg.Requests,
		DurationSeconds: elapsed.Seconds(),
		Interrupted:     interrupted,
		BodyDigest:      gen.BodyDigest(),
		slo:             cfg.SLO,
		probeActive:     cfg.Prober != nil,
	}
	if len(cfg.Targets) > 1 {
		rep.Targets = cfg.Targets
	}

	overall := stats.NewLatencyHist()
	for k := Kind(0); k < numKinds; k++ {
		kt := &t.kinds[k]
		ep := EndpointReport{
			Endpoint:     k.String(),
			Path:         k.Path(),
			Issued:       kt.issued,
			OK:           kt.ok,
			Errors:       kt.errors,
			Backpressure: kt.backpressure,
			Degraded:     kt.degraded,
			Cached:       kt.cached,
			ItemErrors:   kt.itemErrors,
			Probed:       kt.probed,
			Mismatches:   kt.mismatches,
			Latency:      quantilesOf(kt.hist),
			Histogram:    kt.hist,
			ErrorExample: kt.errExample,
		}
		if elapsed > 0 {
			ep.RequestsPerSec = float64(kt.ok) / elapsed.Seconds()
		}
		rep.Endpoints = append(rep.Endpoints, ep)
		rep.Issued += kt.issued
		rep.OK += kt.ok
		rep.Errors += kt.errors
		rep.Backpressure += kt.backpressure
		rep.Degraded += kt.degraded
		rep.Probe.Checked += kt.probed
		rep.Probe.Mismatches += kt.mismatches
		if rep.Probe.Example == "" {
			rep.Probe.Example = kt.mismatch
		}
		// Merge can only fail on layout mismatch; all hists share
		// NewLatencyHist's layout.
		_ = overall.Merge(kt.hist)
	}
	rep.Overall = quantilesOf(overall)
	if rep.Issued > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Issued)
	}
	if elapsed > 0 {
		rep.RequestsPerSec = float64(rep.OK) / elapsed.Seconds()
	}
	rep.Probe.Enabled = cfg.Prober != nil
	if mp, ok := cfg.Prober.(*ModelProber); ok && mp != nil {
		rep.Probe.ModelVersion = mp.Version()
	}
	// The schedule digest attests the planned schedule: the full
	// request count when bounded, else exactly what was issued.
	n := cfg.Requests
	if n == 0 {
		n = rep.Issued
	}
	rep.ScheduleDigest = gen.ScheduleDigest(n)
	return rep
}

// Evaluate fills the SLO verdicts from the configured limits. A probe
// gate (zero mismatches) is always active when probing ran. The report
// passes only if every active gate passes; with no active gates it
// passes vacuously.
func (r *Report) Evaluate() {
	r.SLO = r.SLO[:0]
	add := func(name string, limit, actual float64, pass bool) {
		r.SLO = append(r.SLO, Verdict{Name: name, Limit: limit, Actual: actual, Pass: pass})
	}
	if r.slo.MaxErrorRate >= 0 {
		add("max_error_rate", r.slo.MaxErrorRate, r.ErrorRate, r.ErrorRate <= r.slo.MaxErrorRate)
	}
	if r.probeActive {
		add("probe_mismatches", 0, float64(r.Probe.Mismatches), r.Probe.Mismatches == 0)
	}
	if r.slo.ExpectDegraded {
		add("expect_degraded", 1, float64(r.Degraded), r.Degraded > 0)
	}
	r.SLOPass = true
	for _, v := range r.SLO {
		if !v.Pass {
			r.SLOPass = false
		}
	}
}

// serverStats folds before/after /metrics snapshot pairs into
// attribution deltas, summed across all scraped targets so a fleet's
// caches and allocations report as one aggregate.
func serverStats(before, after []obs.Snapshot) *ServerStats {
	d := func(name string) float64 {
		var sum float64
		for i := range after {
			if i < len(before) {
				sum += after[i].DeltaFamily(before[i], name)
			}
		}
		return sum
	}
	ss := &ServerStats{
		RequestsTotal:    d("napel_serve_requests_total"),
		PredictionsTotal: d("napel_serve_predictions_total"),
		CacheHits:        d("napel_serve_cache_hits_total"),
		CacheMisses:      d("napel_serve_cache_misses_total"),
		DegradedTotal:    d("napel_serve_degraded_total"),
		RejectedTotal:    d("napel_serve_rejected_total"),
		ChaosInjected:    d("napel_chaos_injected_total"),
		AllocBytes:       d("napel_process_alloc_bytes_total"),
		Mallocs:          d("napel_process_mallocs_total"),
		GCCycles:         d("napel_process_gc_cycles_total"),
		GCPauseSeconds:   d("napel_process_gc_pause_seconds_total"),
	}
	if hm := ss.CacheHits + ss.CacheMisses; hm > 0 {
		ss.CacheHitRatio = ss.CacheHits / hm
	}
	if ss.RequestsTotal > 0 {
		ss.AllocBytesPerRequest = ss.AllocBytes / ss.RequestsTotal
		ss.MallocsPerRequest = ss.Mallocs / ss.RequestsTotal
	}
	return ss
}
