package serve

import (
	"sync/atomic"
	"time"

	"napel/internal/obs"
)

// statusClasses indexes status/100: index 0 aggregates anything exotic.
var statusClasses = [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

// serveObs is the server's observability surface on the shared
// internal/obs registry (it replaced the bespoke Metrics type). Every
// per-endpoint series is pre-resolved at construction, so the request
// path touches only lock-free handles; series therefore also appear at
// zero, which keeps the exposition deterministic from the first scrape.
type serveObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	start  time.Time

	requests map[string]*[6]*obs.Counter
	duration map[string]*obs.Histogram

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

	// durSumNanos/durCount aggregate completed-request latency so the
	// Retry-After computation can quote the observed mean.
	durSumNanos atomic.Int64
	durCount    atomic.Int64
}

func newServeObs(tracer *obs.Tracer, endpoints ...string) *serveObs {
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, "napel-serve")
	o := &serveObs{
		reg:      reg,
		tracer:   tracer,
		start:    time.Now(),
		requests: make(map[string]*[6]*obs.Counter, len(endpoints)),
		duration: make(map[string]*obs.Histogram, len(endpoints)),
	}
	req := reg.CounterVec("napel_serve_requests_total",
		"Completed requests by endpoint and status class.", "endpoint", "class")
	dur := reg.HistogramVec("napel_serve_request_duration_seconds",
		"Request latency histogram by endpoint.", nil, "endpoint")
	for _, ep := range endpoints {
		var handles [6]*obs.Counter
		for ci, class := range statusClasses {
			handles[ci] = req.With(ep, class)
		}
		o.requests[ep] = &handles
		o.duration[ep] = dur.With(ep)
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

// observe records one completed request. Unknown endpoints (404 paths)
// fold into the catch-all created at construction.
func (o *serveObs) observe(endpoint string, status int, d time.Duration) {
	em, ok := o.requests[endpoint]
	if !ok {
		endpoint = "other"
		em = o.requests[endpoint]
	}
	class := status / 100
	if class < 0 || class >= len(em) {
		class = 0
	}
	em[class].Inc()
	o.duration[endpoint].Observe(d.Seconds())
	o.durSumNanos.Add(d.Nanoseconds())
	o.durCount.Add(1)
}

// avgDuration returns the mean completed-request latency, or 0 before
// the first request.
func (o *serveObs) avgDuration() time.Duration {
	n := o.durCount.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(o.durSumNanos.Load() / n)
}
