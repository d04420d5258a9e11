package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"napel/internal/obs"
	"napel/internal/serve"
	"napel/internal/stats"
)

// Config tunes one load-generation run. Target plus one of Requests or
// Duration is the minimum viable configuration.
type Config struct {
	// Target is the server's base URL, e.g. http://127.0.0.1:9090.
	// Shorthand for a one-element Targets.
	Target string
	// Targets, when set, spreads the schedule round-robin across
	// several base URLs — replicas of one fleet, or a gate plus its
	// replicas for comparison runs. The request schedule itself is
	// target-independent: op i always carries the same body, it just
	// lands on Targets[i % len(Targets)].
	Targets []string
	// ScrapeTargets overrides which /metrics endpoints bracket the run
	// (default Targets). Deltas are summed across all of them, so a
	// fleet's aggregate cache behavior lands in one ServerStats.
	ScrapeTargets []string
	// Workers is the number of concurrent clients (default 8). Offered
	// load adapts to the server, and Retry-After answers pace the
	// workers.
	Workers int
	// Think pauses each worker between ops (default 0).
	Think time.Duration
	// Requests stops the run after this many scheduled ops (0 = run
	// until Duration).
	Requests uint64
	// Duration stops the run after this much wall time (0 = run until
	// Requests). At least one bound is required.
	Duration time.Duration
	// Synth seeds and shapes request synthesis.
	Synth SynthConfig
	// Mix weighs the traffic classes (zero value = DefaultMix).
	Mix Mix
	// Prober, when non-nil, verifies sampled responses against local
	// expectations; mismatches fail the SLO gate.
	Prober Prober
	// ProbeEvery samples every Nth successful request per worker for
	// probing (default 8; 1 probes everything).
	ProbeEvery int
	// MaxRetryAfter caps how long a worker honors a Retry-After hint
	// (default 2s) so one 3600s answer cannot stall the run.
	MaxRetryAfter time.Duration
	// SLO configures the pass/fail gates evaluated into the report.
	SLO SLOLimits
	// ScrapeMetrics scrapes Target/metrics before and after the run
	// and attributes the deltas in the report.
	ScrapeMetrics bool
	// Trace, when non-nil, records one client span per op into this
	// tracer. Every op is stamped with a seed-derived traceparent header
	// regardless (replaying a schedule replays its trace ids); the
	// tracer only controls whether loadgen keeps its own copy of the
	// client leg, e.g. for push-export to napel-obsd.
	Trace *obs.Tracer
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
}

func (c Config) withDefaults() (Config, error) {
	if c.Target != "" {
		c.Targets = append([]string{c.Target}, c.Targets...)
	}
	if len(c.Targets) == 0 {
		return c, fmt.Errorf("loadgen: Target is required")
	}
	c.Target = c.Targets[0]
	if len(c.ScrapeTargets) == 0 {
		c.ScrapeTargets = c.Targets
	}
	if c.Requests == 0 && c.Duration <= 0 {
		return c, fmt.Errorf("loadgen: one of Requests or Duration must bound the run")
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 8
	}
	if c.MaxRetryAfter <= 0 {
		c.MaxRetryAfter = 2 * time.Second
	}
	if (c.Mix == Mix{}) {
		c.Mix = DefaultMix()
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c, nil
}

// kindTally accumulates one traffic class's counters. Each worker owns
// one, so the hot path takes no lock.
type kindTally struct {
	issued, ok, errors, backpressure uint64
	degraded, cached, itemErrors     uint64
	probed, mismatches               uint64
	hist                             *stats.LogHist
	mismatch                         string // first divergence, for the report
	errExample                       string // first hard error, for the report
}

type tally struct {
	kinds [numKinds]kindTally
}

func newTally() *tally {
	t := &tally{}
	for k := range t.kinds {
		t.kinds[k].hist = stats.NewLatencyHist()
	}
	return t
}

func (t *tally) merge(o *tally) error {
	for k := range t.kinds {
		a, b := &t.kinds[k], &o.kinds[k]
		a.issued += b.issued
		a.ok += b.ok
		a.errors += b.errors
		a.backpressure += b.backpressure
		a.degraded += b.degraded
		a.cached += b.cached
		a.itemErrors += b.itemErrors
		a.probed += b.probed
		a.mismatches += b.mismatches
		if a.mismatch == "" {
			a.mismatch = b.mismatch
		}
		if a.errExample == "" {
			a.errExample = b.errExample
		}
		if err := a.hist.Merge(b.hist); err != nil {
			return err
		}
	}
	return nil
}

// outcome is one op's classified result.
type outcome struct {
	traceID    uint64
	status     int
	latency    time.Duration
	retryAfter time.Duration // backpressure pacing hint (0 = none)
	degraded   uint64
	cached     uint64
	itemErrors uint64
	canceled   bool
	err        error
	// probes pairs sampled responses with the requests that produced
	// them, for the correctness prober.
	probes []probePair
}

type probePair struct {
	req  *serve.PredictRequest
	resp *serve.PredictResponse
}

const maxRespBytes = 16 << 20

type runner struct {
	cfg  Config
	gen  *Generator
	next atomic.Uint64
	stop chan struct{}
	ctx  context.Context
}

// Run executes one load-generation run and always returns a report —
// partial when interrupted — unless configuration or synthesis itself
// fails. Cancelling ctx (SIGINT) stops the run early; the report is
// then marked Interrupted.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	gen, err := NewGenerator(cfg.Synth, cfg.Mix)
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, gen: gen, stop: make(chan struct{}), ctx: ctx}

	var before []obs.Snapshot
	var scrapeErr error
	if cfg.ScrapeMetrics {
		before, scrapeErr = r.scrape()
	}

	var stopOnce sync.Once
	closeStop := func() { stopOnce.Do(func() { close(r.stop) }) }
	if cfg.Duration > 0 {
		timer := time.AfterFunc(cfg.Duration, closeStop)
		defer timer.Stop()
	}
	watchdone := make(chan struct{})
	defer close(watchdone)
	go func() {
		select {
		case <-ctx.Done():
			closeStop()
		case <-r.stop:
		case <-watchdone:
		}
	}()

	start := time.Now()
	total := newTally()
	if err := r.closedLoop(total); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	var after []obs.Snapshot
	if cfg.ScrapeMetrics && scrapeErr == nil {
		after, scrapeErr = r.scrape()
	}

	rep := buildReport(cfg, gen, total, elapsed, ctx.Err() != nil)
	if cfg.ScrapeMetrics {
		if scrapeErr != nil {
			rep.ScrapeError = scrapeErr.Error()
		} else {
			rep.Server = serverStats(before, after)
		}
	}
	rep.Evaluate()
	return rep, nil
}

func (r *runner) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

func (r *runner) closedLoop(total *tally) error {
	tallies := make([]*tally, r.cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.Workers; w++ {
		tallies[w] = newTally()
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for !r.stopped() {
				i := r.next.Add(1) - 1
				if r.cfg.Requests > 0 && i >= r.cfg.Requests {
					return
				}
				op := r.gen.Op(i)
				o := r.doOp(i, op)
				r.record(t, op, o)
				if o.retryAfter > 0 {
					wait := o.retryAfter
					if wait > r.cfg.MaxRetryAfter {
						wait = r.cfg.MaxRetryAfter
					}
					if !sleepFor(r.stop, wait) {
						return
					}
				}
				if r.cfg.Think > 0 && !sleepFor(r.stop, r.cfg.Think) {
					return
				}
			}
		}(tallies[w])
	}
	wg.Wait()
	for _, t := range tallies {
		if err := total.merge(t); err != nil {
			return err
		}
	}
	return nil
}

// doOp posts one scheduled request and classifies the result. The
// request rides the run context, so SIGINT cancels in-flight calls;
// those are marked canceled and excluded from every tally. With
// multiple targets, op i goes to Targets[i % len] — deterministic, so
// a replayed schedule hits the same replica sequence.
func (r *runner) doOp(i uint64, op Op) outcome {
	target := r.cfg.Targets[i%uint64(len(r.cfg.Targets))]
	body := r.gen.Body(op)
	req, err := http.NewRequestWithContext(r.ctx, http.MethodPost,
		target+op.Kind.Path(), bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	// Every op carries a seed-derived trace identity: replaying a
	// schedule replays its trace ids, so a mismatch report from run N
	// names a trace that run N+1 regenerates byte-identically. mix64 is
	// bijective, so at most one (seed, i) pair per stream yields zero —
	// bumped to 1 to keep the header W3C-valid.
	traceID, spanID := r.traceIdentity(i)
	req.Header.Set(obs.TraceParentHeader, obs.FormatTraceParent(traceID, spanID))
	t0 := time.Now()
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		if r.ctx.Err() != nil {
			return outcome{canceled: true}
		}
		return outcome{traceID: traceID, err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRespBytes))
	lat := time.Since(t0)
	r.recordClientSpan(op, target, traceID, spanID, t0, lat, resp.StatusCode)
	if err != nil {
		if r.ctx.Err() != nil {
			return outcome{canceled: true}
		}
		return outcome{traceID: traceID, latency: lat, err: err}
	}

	o := outcome{traceID: traceID, status: resp.StatusCode, latency: lat}
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
	switch {
	case resp.StatusCode == http.StatusOK:
		r.classify(op, data, &o)
	case resp.StatusCode == http.StatusTooManyRequests,
		resp.StatusCode == http.StatusServiceUnavailable && retryAfter > 0:
		// Backpressure: the server asked for pacing (saturated,
		// draining or breaker-open). The worker honors the hint; the
		// tally keeps it apart from hard errors.
		if retryAfter <= 0 {
			retryAfter = time.Second
		}
		o.retryAfter = retryAfter
	default:
		o.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, truncate(data, 200))
	}
	return o
}

// traceIdentity derives op i's deterministic (trace id, span id) pair
// from the synthesis seed.
func (r *runner) traceIdentity(i uint64) (traceID, spanID uint64) {
	traceID = mix64(r.cfg.Synth.Seed ^ mix64(i*2+streamTrace))
	spanID = mix64(traceID + streamTrace)
	if traceID == 0 {
		traceID = 1
	}
	if spanID == 0 {
		spanID = 1
	}
	return traceID, spanID
}

// recordClientSpan keeps loadgen's own copy of the client leg — the
// span whose identity was stamped on the wire — when a tracer is
// configured. Server-side spans parent under this one, so /debug/fleet
// shows the full loadgen→gate→replica chain.
func (r *runner) recordClientSpan(op Op, target string, traceID, spanID uint64, t0 time.Time, lat time.Duration, status int) {
	if r.cfg.Trace == nil {
		return
	}
	r.cfg.Trace.Record(obs.SpanRecord{
		TraceID:         fmt.Sprintf("%016x", traceID),
		SpanID:          fmt.Sprintf("%016x", spanID),
		Name:            "loadgen.request",
		Start:           t0,
		DurationSeconds: lat.Seconds(),
		Attrs: []obs.Attr{
			{Key: "target", Value: target},
			{Key: "kind", Value: op.Kind.String()},
			{Key: "status", Value: fmt.Sprintf("%d", status)},
		},
	})
}

// classify parses a 200 body per traffic class, splitting degraded
// answers and cache hits out and collecting probe samples.
func (o *outcome) addResp(req *serve.PredictRequest, resp *serve.PredictResponse) {
	if resp.Error != "" {
		o.itemErrors++
		return
	}
	if resp.Degraded {
		o.degraded++
	}
	if resp.Cached {
		o.cached++
	}
	o.probes = append(o.probes, probePair{req: req, resp: resp})
}

func (r *runner) classify(op Op, data []byte, o *outcome) {
	switch op.Kind {
	case KindBatch:
		var resps []serve.PredictResponse
		if err := json.Unmarshal(data, &resps); err != nil {
			o.err = fmt.Errorf("decoding batch response: %w", err)
			return
		}
		items := r.gen.BatchVariants(op.Variant)
		for i := range resps {
			var req *serve.PredictRequest
			if i < len(items) {
				req = r.gen.Request(items[i])
			}
			o.addResp(req, &resps[i])
		}
	case KindSuitability:
		var sr serve.SuitabilityResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			o.err = fmt.Errorf("decoding suitability response: %w", err)
			return
		}
		o.addResp(r.gen.Request(op.Variant), &sr.NMC)
	default:
		var pr serve.PredictResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			o.err = fmt.Errorf("decoding predict response: %w", err)
			return
		}
		o.addResp(r.gen.Request(op.Variant), &pr)
	}
}

func (r *runner) record(t *tally, op Op, o outcome) {
	if o.canceled {
		return
	}
	kt := &t.kinds[op.Kind]
	kt.issued++
	switch {
	case o.err != nil:
		kt.errors++
		if kt.errExample == "" {
			kt.errExample = o.err.Error()
		}
	case o.retryAfter > 0:
		kt.backpressure++
	default:
		kt.ok++
		kt.hist.Add(o.latency.Seconds())
		kt.degraded += o.degraded
		kt.cached += o.cached
		kt.itemErrors += o.itemErrors
		if r.cfg.Prober != nil && kt.ok%uint64(r.cfg.ProbeEvery) == 0 {
			for _, p := range o.probes {
				if p.req == nil {
					continue
				}
				checked, err := r.cfg.Prober.Check(p.req, p.resp)
				if !checked {
					continue
				}
				kt.probed++
				if err != nil {
					kt.mismatches++
					if kt.mismatch == "" {
						// The trace id keys the mismatch to its fleet
						// trace (and, seeds being deterministic, to the
						// same op in a replay).
						kt.mismatch = fmt.Sprintf("trace %016x: %v", o.traceID, err)
					}
				}
			}
		}
	}
}

func (r *runner) scrape() ([]obs.Snapshot, error) {
	snaps := make([]obs.Snapshot, 0, len(r.cfg.ScrapeTargets))
	for _, target := range r.cfg.ScrapeTargets {
		snap, err := scrapeOne(r.cfg.Client, target)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", target, err)
		}
		snaps = append(snaps, snap)
	}
	return snaps, nil
}

func scrapeOne(client *http.Client, target string) (obs.Snapshot, error) {
	resp, err := client.Get(target + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: HTTP %d", resp.StatusCode)
	}
	return obs.ParseText(io.LimitReader(resp.Body, maxRespBytes))
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the only
// form the napel services emit); 0 means absent or unparseable.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

func truncate(b []byte, n int) string {
	s := string(bytes.TrimSpace(b))
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}
