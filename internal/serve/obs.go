package serve

import (
	"time"

	"napel/internal/httpd"
	"napel/internal/obs"
)

// serveObs is the server's observability surface on the shared
// internal/obs registry (it replaced the bespoke Metrics type). Every
// series is pre-resolved at construction, so the request path touches
// only lock-free handles; series therefore also appear at zero, which
// keeps the exposition deterministic from the first scrape.
type serveObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	start  time.Time

	// requests also gives the mean request latency that Retry-After
	// quotes.
	requests *httpd.RequestMetrics

	inflight          *obs.Gauge
	rejected          *obs.Counter
	predictions       *obs.Counter
	degradedServed    *obs.Counter
	deadlineExhausted *obs.Counter

	stageRead     *obs.Histogram
	stageDecode   *obs.Histogram
	stageAssemble *obs.Histogram
	stageCache    *obs.Histogram
	stagePredict  *obs.Histogram
	stageEncode   *obs.Histogram

	loadFetch  *obs.Histogram
	loadDecode *obs.Histogram
}

func newServeObs(tracer *obs.Tracer, endpoints ...string) *serveObs {
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, "napel-serve")
	o := &serveObs{
		reg:    reg,
		tracer: tracer,
		start:  time.Now(),
		requests: httpd.NewRequestMetrics(reg, "napel_serve",
			"Completed requests by endpoint and status class.",
			"Request latency histogram by endpoint.", endpoints...),
	}
	o.inflight = reg.Gauge("napel_serve_inflight_requests",
		"Requests currently being served.")
	o.rejected = reg.Counter("napel_serve_rejected_total",
		"Requests rejected by the concurrency limiter.")
	o.predictions = reg.Counter("napel_serve_predictions_total",
		"Individual predictions served (batch items count separately).")
	o.degradedServed = reg.Counter("napel_serve_degraded_total",
		"Predictions answered from the last-good cache because the normal path failed.")
	o.deadlineExhausted = reg.Counter("napel_serve_deadline_exhausted_total",
		"Predictions refused because the request budget was already spent.")
	stage := reg.HistogramVec("napel_serve_predict_stage_seconds",
		"Per-stage request latency: body read, body decode, feature assembly, cache lookup, model predict, answer encode and write.",
		nil, "stage")
	o.stageRead = stage.With("read")
	o.stageDecode = stage.With("decode")
	o.stageAssemble = stage.With("assemble")
	o.stageCache = stage.With("cache")
	o.stagePredict = stage.With("predict")
	o.stageEncode = stage.With("encode")
	load := reg.HistogramVec("napel_serve_model_load_seconds",
		"Time to install a model generation, at start-up, reload or follow, by stage: fetch (read, pull and verify, or a follow poll's read and hash) and decode (with a read file's content hash beside it).",
		nil, "stage")
	o.loadFetch = load.With("fetch")
	o.loadDecode = load.With("decode")
	return o
}
