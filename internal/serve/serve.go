package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"napel/internal/cache"
	"napel/internal/httpd"
	"napel/internal/napel"
	"napel/internal/obs"
	"napel/internal/resilience"
	"napel/internal/resilience/faultpoint"
)

// Fault points on the serving path, active only under an installed
// faultpoint plan: "serve.predict" fails a model evaluation (exercising
// the degraded-mode answer), "serve.reload" fails a registry reload or
// follow poll (exercising the reload breaker).
const (
	fpPredict = "serve.predict"
	fpReload  = "serve.reload"
)

// Config tunes the service. Zero fields take the documented defaults.
type Config struct {
	// ModelPaths maps model names to predictor files written by
	// `napel train`. The entry named "default" (or a sole entry) serves
	// requests that name no model.
	ModelPaths map[string]string
	// ModelSources maps model names to pull-based sources (e.g. a
	// StoreSource following napel-traind's model store over HTTP). A
	// name present in both maps takes the source. At least one of
	// ModelPaths/ModelSources must be non-empty.
	ModelSources map[string]ModelSource
	// CacheEntries bounds the LRU response cache (default 4096).
	CacheEntries int
	// MaxBatch bounds the number of items in one batched predict
	// request (default 256).
	MaxBatch int
	// MaxBodyBytes bounds request bodies (default 8 MiB). Oversized
	// requests get 413.
	MaxBodyBytes int64
	// MaxInFlight bounds concurrently served requests (default 64);
	// excess requests are rejected immediately with 429.
	MaxInFlight int
	// QueueWait, when positive, lets requests beyond MaxInFlight queue
	// for a slot that long before the 429 is issued. 0 (the default)
	// keeps the historical shed-immediately behavior.
	QueueWait time.Duration
	// PredictBudget, when positive, caps the wall-clock spent on one
	// predict or suitability request: the budget attaches to the request
	// context and batch items past it fail fast with a budget error.
	PredictBudget time.Duration
	// LazyLoad starts the server even when model files are missing or
	// unreadable; /readyz answers 503 until a follow poll or reload
	// installs the first generation. Pair with FollowInterval to come up
	// before napel-traind's first promotion.
	LazyLoad bool
	// DegradedEntries bounds the last-good answer cache used for
	// degraded-mode serving (default 1024). Keyed by model name and
	// feature hash — not model version — so an answer computed under any
	// generation of the same model can stand in when prediction fails.
	// 0 takes the default; negative disables degraded serving.
	DegradedEntries int
	// ReloadFailureThreshold is how many consecutive reload failures trip
	// the reload circuit breaker (default 3).
	ReloadFailureThreshold int
	// ReloadCooldown is how long the reload breaker stays open before
	// probing again (default 15s).
	ReloadCooldown time.Duration
	// Workers bounds the fan-out pool a batched request is spread
	// across (default min(GOMAXPROCS, 8)).
	Workers int
	// DrainTimeout is how long Run waits for in-flight requests after
	// shutdown is requested (default 10s).
	DrainTimeout time.Duration
	// FollowInterval, when positive, makes Run poll the model files and
	// hot-install any content change — the consumer side of
	// napel-traind's atomic promotion pointer. 0 disables following
	// (reload stays available via POST /v1/models/reload).
	FollowInterval time.Duration
	// AccessLog receives one structured (logfmt) line per request,
	// stamped with the request's trace id; nil disables.
	AccessLog io.Writer
	// TraceRing bounds the in-memory span ring served at /debug/traces
	// (default obs.DefaultRingSize).
	TraceRing int
	// TraceSink, when non-nil, additionally receives every completed
	// span as one JSON line (JSONL).
	TraceSink io.Writer
}

func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.DegradedEntries == 0 {
		c.DegradedEntries = 1024
	}
	if c.ReloadFailureThreshold <= 0 {
		c.ReloadFailureThreshold = 3
	}
	if c.ReloadCooldown <= 0 {
		c.ReloadCooldown = 15 * time.Second
	}
	return c
}

// cacheKey identifies a memoizable prediction: the exact model weights
// (via the registry's content-hash version) and a hash of everything
// the prediction depends on — the assembled feature vector (which
// embeds the architecture point and thread count) plus the instruction
// total.
type cacheKey struct {
	version string
	hash    uint64
}

// degradedKey identifies a last-good answer: the model's name as the
// registry resolved the request's, and the feature hash. It leaves the
// version out, so an answer from any generation of the same model can
// stand in, but never one from another model.
type degradedKey struct {
	model string
	hash  uint64
}

// Server is the napel-serve HTTP service. Create with New, mount via
// Handler, or run with graceful shutdown via Run.
type Server struct {
	cfg      Config
	registry *Registry
	cache    *cache.LRU[cacheKey, napel.Prediction]
	o        *serveObs
	logger   *slog.Logger
	limiter  *resilience.Bulkhead
	draining atomic.Bool

	// drainStart is when draining flipped on (unix nanos), feeding the
	// Retry-After computation for requests refused mid-drain.
	drainStart atomic.Int64

	// reloadBreaker guards every registry reload — the POST endpoint and
	// follow polls — so a failure storm (publisher flapping, corrupt
	// file) backs off instead of re-parsing a broken model every tick.
	reloadBreaker *resilience.Breaker

	// degraded holds last-good predictions keyed by model name and
	// feature hash; consulted when the predict path fails so the service
	// keeps answering (marked Degraded) through a reload failure storm.
	// Nil when disabled.
	degraded *cache.LRU[degradedKey, napel.Prediction]

	// testHookPredict, when non-nil, runs at the start of every
	// prediction — tests use it to hold requests in flight.
	testHookPredict func()
}

// New loads all configured models and returns a ready server; it fails
// if any model file is missing or unreadable (fail fast at boot —
// hot-reload failures later keep the old generation instead), unless
// LazyLoad defers that first load to follow/reload.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	sources := make(map[string]ModelSource, len(cfg.ModelPaths)+len(cfg.ModelSources))
	for name, path := range cfg.ModelPaths {
		sources[name] = &FileSource{Path: path}
	}
	for name, src := range cfg.ModelSources {
		sources[name] = src
	}
	o := newServeObs(obs.NewTracer(cfg.TraceRing, cfg.TraceSink),
		"predict", "suitability", "models", "reload", "healthz", "readyz", "metrics")
	reg, err := newRegistrySources(sources, cfg.LazyLoad, o.loadFetch, o.loadDecode)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		registry: reg,
		cache:    cache.NewLRU[cacheKey, napel.Prediction](cfg.CacheEntries),
		o:        o,
		limiter:  resilience.NewBulkhead(cfg.MaxInFlight, cfg.QueueWait),
		reloadBreaker: resilience.NewBreaker(resilience.BreakerConfig{
			Name:             "serve.reload",
			FailureThreshold: cfg.ReloadFailureThreshold,
			OpenTimeout:      cfg.ReloadCooldown,
		}),
	}
	if cfg.DegradedEntries > 0 {
		s.degraded = cache.NewLRU[degradedKey, napel.Prediction](cfg.DegradedEntries)
	}
	// Store-backed sources trace their pulls on the server's tracer, so
	// a model distribution shows up as one trace spanning serve and
	// traind.
	for _, src := range sources {
		if ss, ok := src.(*StoreSource); ok && ss.Trace == nil {
			ss.Trace = s.o.tracer
		}
	}
	if cfg.AccessLog != nil {
		s.logger = slog.New(obs.NewLogHandler(slog.NewTextHandler(cfg.AccessLog, nil)))
	}
	// Scrape-time views over state the server owns: the response cache,
	// the model registry and the process clock.
	m := s.o.reg
	m.CounterFunc("napel_serve_cache_hits_total",
		"Response cache hits.", func() float64 { return float64(s.cache.Stats().Hits) })
	m.CounterFunc("napel_serve_cache_misses_total",
		"Response cache misses.", func() float64 { return float64(s.cache.Stats().Misses) })
	m.CounterFunc("napel_serve_cache_evictions_total",
		"Response cache evictions.", func() float64 { return float64(s.cache.Stats().Evictions) })
	m.GaugeFunc("napel_serve_cache_entries",
		"Response cache entries resident.", func() float64 { return float64(s.cache.Len()) })
	m.GaugeFunc("napel_serve_models_loaded",
		"Models currently registered.", func() float64 { return float64(len(s.registry.List())) })
	m.CounterFunc("napel_serve_model_reloads_total",
		"Successful registry reloads.", func() float64 { return float64(s.registry.Reloads()) })
	m.CounterFunc("napel_serve_follow_failures_total",
		"Failed follow-mode reload attempts.", func() float64 { return float64(s.registry.FollowFailures()) })
	m.GaugeFunc("napel_serve_uptime_seconds",
		"Seconds since the server started.", func() float64 { return time.Since(s.o.start).Seconds() })
	m.GaugeFunc("napel_serve_ready",
		"1 when the server would answer /readyz with 200.",
		func() float64 {
			if s.Ready() {
				return 1
			}
			return 0
		})
	m.CounterFunc("napel_chaos_injected_total",
		"Faults fired by the installed chaos plan (0 when chaos is off).",
		func() float64 { return float64(faultpoint.TotalInjected()) })
	// Process-level allocation/GC series, so a load generator scraping
	// /metrics before and after a run can attribute allocs and GC work
	// to the requests in between.
	obs.RegisterRuntimeMetrics(m)
	s.reloadBreaker.Register(m)
	return s, nil
}

// Ready reports whether the server would answer /readyz with 200: not
// draining and at least one model generation installed.
func (s *Server) Ready() bool { return !s.draining.Load() && s.registry.Ready() }

// Obs exposes the server's metrics registry (for embedding callers and
// tests); scraping it is equivalent to GET /metrics.
func (s *Server) Obs() *obs.Registry { return s.o.reg }

// Tracer exposes the server's span tracer, the backing store of
// /debug/traces.
func (s *Server) Tracer() *obs.Tracer { return s.o.tracer }

// Registry exposes the model registry (for CLI status and tests).
func (s *Server) Registry() *Registry { return s.registry }

// Handler returns the routed HTTP handler with limits, metrics and
// access logging applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/healthz", s.instrument("healthz", http.MethodGet, s.handleHealthz))
	mux.Handle("/readyz", s.instrument("readyz", http.MethodGet, s.handleReadyz))
	mux.Handle("/metrics", s.instrument("metrics", http.MethodGet, s.o.reg.Handler().ServeHTTP))
	mux.Handle("/v1/predict", s.instrument("predict", http.MethodPost, s.handlePredict))
	mux.Handle("/v1/suitability", s.instrument("suitability", http.MethodPost, s.handleSuitability))
	mux.Handle("/v1/models", s.instrument("models", http.MethodGet, s.handleModels))
	mux.Handle("/v1/models/reload", s.instrument("reload", http.MethodPost, s.handleReload))
	mux.Handle("/", s.instrument("other", "", func(w http.ResponseWriter, r *http.Request) {
		httpd.WriteError(w, http.StatusNotFound, fmt.Sprintf("no route %s", r.URL.Path))
	}))
	// Runtime introspection rides on the same mux: span traces, pprof
	// and the goroutine/GC/heap snapshot. These skip instrument's
	// limiter so a saturated server can still be debugged.
	obs.MountDebug(mux, s.o.tracer)
	return mux
}

// retryAfterSeconds estimates when a refused request is worth retrying,
// so 429 and 503 answers advertise the same honest hint instead of a
// hardcoded constant. Draining: the remainder of the drain window.
// Saturated: the observed mean request duration scaled by queue
// pressure, clamped to [1s, 30s].
func (s *Server) retryAfterSeconds() int {
	if s.draining.Load() {
		rem := s.cfg.DrainTimeout - time.Since(time.Unix(0, s.drainStart.Load()))
		return clampSeconds(rem, 1, int(math.Ceil(s.cfg.DrainTimeout.Seconds())))
	}
	avg := s.o.requests.Mean()
	if avg <= 0 {
		avg = 50 * time.Millisecond
	}
	pressure := 1 + s.limiter.Waiting()
	return clampSeconds(time.Duration(pressure)*avg, 1, 30)
}

func clampSeconds(d time.Duration, lo, hi int) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < lo {
		secs = lo
	}
	if secs > hi {
		secs = hi
	}
	return secs
}

func setRetryAfter(w http.ResponseWriter, secs int) {
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// instrument wraps a handler with the serving plumbing: method check,
// drain refusal, concurrency limiting with 429 backpressure,
// per-endpoint deadline budgets, a per-request root span,
// per-endpoint metrics and structured access logging correlated to the
// span. Probe endpoints (healthz, readyz) bypass the drain refusal and
// the limiter: an orchestrator must be able to observe the drain, and a
// saturated server must still answer its probes.
func (s *Server) instrument(endpoint, method string, h http.HandlerFunc) http.Handler {
	probe := endpoint == "healthz" || endpoint == "readyz"
	budget := time.Duration(0)
	if endpoint == "predict" || endpoint == "suitability" {
		budget = s.cfg.PredictBudget
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &httpd.Recorder{ResponseWriter: w}
		ctx, span := obs.StartSpan(obs.ExtractHTTP(obs.WithTracer(r.Context(), s.o.tracer), r), "http."+endpoint)
		span.SetAttr("method", r.Method)
		span.SetAttr("path", r.URL.Path)
		r = r.WithContext(ctx)

		switch {
		case method != "" && r.Method != method:
			httpd.WriteError(rec, http.StatusMethodNotAllowed, fmt.Sprintf("%s requires %s", r.URL.Path, method))
		case probe:
			h(rec, r)
		case s.draining.Load():
			setRetryAfter(rec, s.retryAfterSeconds())
			httpd.WriteError(rec, http.StatusServiceUnavailable, "server is draining")
		default:
			switch err := s.limiter.Acquire(ctx); {
			case err == nil:
				s.o.inflight.Inc()
				if budget > 0 {
					bctx, cancel := resilience.WithBudget(ctx, budget)
					h(rec, r.WithContext(bctx))
					cancel()
				} else {
					h(rec, r)
				}
				s.o.inflight.Dec()
				s.limiter.Release()
			case errors.Is(err, resilience.ErrSaturated):
				s.o.rejected.Inc()
				setRetryAfter(rec, s.retryAfterSeconds())
				httpd.WriteError(rec, http.StatusTooManyRequests,
					fmt.Sprintf("over %d requests in flight", s.cfg.MaxInFlight))
			default:
				// The client's context ended while queued.
				httpd.WriteError(rec, http.StatusServiceUnavailable, "request canceled while queued")
			}
		}

		dur := time.Since(start)
		span.SetAttrInt("status", int64(rec.Status))
		span.End()
		s.o.requests.Observe(endpoint, rec.Status, dur)
		s.logAccess(ctx, r, rec, dur)
	})
}

func (s *Server) logAccess(ctx context.Context, r *http.Request, rec *httpd.Recorder, dur time.Duration) {
	if s.logger == nil {
		return
	}
	s.logger.LogAttrs(ctx, slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", rec.Status),
		slog.Int64("dur_us", dur.Microseconds()),
		slog.Int64("bytes", rec.Bytes),
		slog.String("remote", r.RemoteAddr))
}

// Run serves on addr until ctx is cancelled, then drains in-flight
// requests for up to DrainTimeout before returning. New requests
// arriving during the drain are refused with 503.
func (s *Server) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.serve(ctx, ln)
}

func (s *Server) serve(ctx context.Context, ln net.Listener) error {
	if s.cfg.FollowInterval > 0 {
		followCtx, stopFollow := context.WithCancel(ctx)
		defer stopFollow()
		go s.follow(followCtx, s.cfg.FollowInterval)
	}
	return httpd.Serve(ctx, ln, s.Handler(), s.cfg.DrainTimeout, func() {
		s.drainStart.Store(time.Now().UnixNano())
		s.draining.Store(true)
	})
}

// follow is the breaker-guarded polling loop behind -follow: while the
// reload breaker is open, polls are skipped entirely (counted as
// short-circuits), so a corrupt or mid-flip model file is not re-parsed
// every tick; once the cool-down passes a probe poll decides whether to
// resume.
func (s *Server) follow(ctx context.Context, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			if s.reloadBreaker.Allow() != nil {
				continue
			}
			err := faultpoint.Inject(ctx, fpReload)
			if err == nil {
				_, err = s.registry.ReloadIfChanged()
			}
			if err != nil {
				s.registry.followFailures.Add(1)
				s.reloadBreaker.RecordFailure()
				continue
			}
			s.reloadBreaker.RecordSuccess()
		}
	}
}
