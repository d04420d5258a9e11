package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"napel/internal/httpd"
	"napel/internal/jsonread"
	"napel/internal/member"
	"napel/internal/obs"
	"napel/internal/resilience"
	"napel/internal/resilience/faultpoint"
)

// fpForward fails a forwarded upstream attempt, exercising failover and
// breaker behavior without touching the replicas.
const fpForward = "fleet.forward"

// Config tunes the gate. Zero fields take the documented defaults.
type Config struct {
	// Replicas are the napel-serve base URLs the gate shards across
	// (e.g. http://127.0.0.1:9191) — the static seed of the membership
	// set. An empty list is legal: replicas announce themselves via
	// POST /v1/fleet/join instead. Order is cosmetic — the ring
	// position of each replica depends only on its URL.
	Replicas []string
	// EvictThreshold is how many consecutive failed /readyz probes
	// evict a replica from the ring (default 3). A replica whose probe
	// answers but reports ready:false is removed immediately —
	// self-reported unreadiness needs no hysteresis.
	EvictThreshold int
	// Logf, when set, receives one line per membership transition
	// (join, evict, readmit).
	Logf func(format string, args ...any)
	// VNodes is the per-replica virtual-node count on the ring (default
	// DefaultVNodes).
	VNodes int
	// HedgeAfter is how long a single predict waits on its primary
	// before launching a hedge to the next ring successor; first
	// response wins and the loser is cancelled (default 30ms; negative
	// disables hedging).
	HedgeAfter time.Duration
	// HealthInterval is the /readyz probe period per replica (default
	// 500ms). Membership changes rebuild the ring.
	HealthInterval time.Duration
	// Budget, when positive, caps the wall-clock spent on one routed
	// request; the remaining budget is split across failover attempts.
	Budget time.Duration
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxBatch bounds items in one batched predict (default 256).
	MaxBatch int
	// BreakerThreshold is how many consecutive upstream failures trip a
	// replica's breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped replica is bypassed before a
	// probe request is allowed through (default 2s).
	BreakerCooldown time.Duration
	// DrainTimeout is how long Run waits for in-flight requests after
	// shutdown is requested (default 10s).
	DrainTimeout time.Duration
	// Client overrides the upstream HTTP client (default: 30s timeout,
	// generous keep-alive pool sized for the fleet).
	Client *http.Client
	// TraceRing bounds the in-memory span ring at /debug/traces.
	TraceRing int
	// TraceSink, when non-nil, receives every completed span as JSONL.
	TraceSink io.Writer
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 30 * time.Millisecond
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.EvictThreshold <= 0 {
		c.EvictThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     upstreamIdleTimeout,
			},
		}
	}
	return c
}

// replicaStatus is what the health probe learned from one replica's
// /readyz body.
type replicaStatus struct {
	Ready         bool              `json:"ready"`
	Draining      bool              `json:"draining"`
	Degraded      bool              `json:"degraded"`
	ModelVersion  string            `json:"model_version,omitempty"`
	ModelVersions map[string]string `json:"model_versions,omitempty"`
	Error         string            `json:"error,omitempty"`
}

// replica is one upstream napel-serve process with its routing state.
type replica struct {
	url     string
	breaker *resilience.Breaker

	// Pre-resolved outcome counters for the hot path.
	okC, clientC, errC, canceledC *obs.Counter
	shareG                        *obs.Gauge

	ready atomic.Bool

	mu     sync.Mutex
	status replicaStatus
}

func (r *replica) setStatus(st replicaStatus) {
	r.mu.Lock()
	r.status = st
	r.mu.Unlock()
	r.ready.Store(st.Ready)
}

func (r *replica) getStatus() replicaStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// routing is one immutable routing generation: the ring plus the
// replica structs aligned with its indices, stamped with the
// membership epoch it was built from. Swapped atomically when
// membership changes.
type routing struct {
	ring  *Ring
	reps  []*replica
	epoch uint64
}

// Gate is the fleet front tier. Create with New, mount via Handler or
// run with Run (which also starts the health loop).
type Gate struct {
	cfg    Config
	o      *fleetObs
	client *http.Client

	// members is probe-driven liveness: EvictThreshold consecutive
	// failures take a replica out of the ring, one success readmits it.
	// Its epoch is what /readyz and /v1/fleet report.
	members *member.Set

	// repMu guards the replica collection, which only ever grows —
	// an evicted replica keeps its struct (and breaker history) so a
	// readmission resumes where it left off.
	repMu sync.Mutex
	all   []*replica
	byURL map[string]*replica

	routing   atomic.Pointer[routing]
	rebuildMu sync.Mutex
	draining  atomic.Bool

	// rollMu serializes rolling reloads; concurrent rollouts would
	// interleave per-replica installs and defeat the version check.
	rollMu sync.Mutex
}

// New validates the seed replica set and builds the gate. The first
// health pass has not run yet: call CheckReplicas (Run does) before
// routing. A gate built with no replicas serves 503 until the first
// /v1/fleet/join.
func New(cfg Config) (*Gate, error) {
	cfg = cfg.withDefaults()
	g := &Gate{
		cfg: cfg,
		o: newFleetObs(obs.NewTracer(cfg.TraceRing, cfg.TraceSink),
			"predict", "suitability", "fleet", "join", "reload", "healthz", "readyz", "metrics"),
		client: cfg.Client,
		byURL:  map[string]*replica{},
	}
	// Seed replicas and joiners alike are held Down until their first
	// passing probe: the ring only ever contains verified members.
	g.members = member.NewSet(member.Config{
		FailThreshold: cfg.EvictThreshold,
		OnChange: func(ev member.Event) {
			g.o.ringChanges.With(ev.Change).Inc()
			if cfg.Logf != nil {
				cfg.Logf("fleet: membership %s %s (epoch %d)", ev.Change, ev.Name, ev.Epoch)
			}
		},
	})
	for _, raw := range cfg.Replicas {
		rep, created, err := g.addReplica(raw)
		if err != nil {
			return nil, err
		}
		if !created {
			return nil, fmt.Errorf("fleet: duplicate replica %q", raw)
		}
		g.members.Join(rep.url, nil)
	}
	m := g.o.reg
	m.GaugeFunc("napel_fleet_uptime_seconds",
		"Seconds since the gate started.", func() float64 { return time.Since(g.o.start).Seconds() })
	m.GaugeFunc("napel_fleet_ring_epoch",
		"Monotonic membership epoch; advances on every ring change.",
		func() float64 { return float64(g.members.Epoch()) })
	m.CounterFunc("napel_chaos_injected_total",
		"Faults fired by the installed chaos plan (0 when chaos is off).",
		func() float64 { return float64(faultpoint.TotalInjected()) })
	obs.RegisterRuntimeMetrics(m)
	return g, nil
}

// addReplica validates url and returns its replica struct, creating it
// on first sight. Replica structs are never removed: an evicted URL
// that rejoins keeps its breaker and upstream counters.
func (g *Gate) addReplica(raw string) (rep *replica, created bool, err error) {
	u := strings.TrimSuffix(strings.TrimSpace(raw), "/")
	if u == "" {
		return nil, false, fmt.Errorf("fleet: empty replica URL")
	}
	parsed, err := url.Parse(u)
	if err != nil || (parsed.Scheme != "http" && parsed.Scheme != "https") || parsed.Host == "" {
		return nil, false, fmt.Errorf("fleet: replica URL %q must be absolute http(s)", raw)
	}
	g.repMu.Lock()
	defer g.repMu.Unlock()
	if rep, ok := g.byURL[u]; ok {
		return rep, false, nil
	}
	rep = &replica{
		url: u,
		breaker: resilience.NewBreaker(resilience.BreakerConfig{
			Name:             "fleet." + u,
			FailureThreshold: g.cfg.BreakerThreshold,
			OpenTimeout:      g.cfg.BreakerCooldown,
		}),
		okC:       g.o.upstream.With(u, "ok"),
		clientC:   g.o.upstream.With(u, "client_error"),
		errC:      g.o.upstream.With(u, "error"),
		canceledC: g.o.upstream.With(u, "canceled"),
		shareG:    g.o.share.With(u),
	}
	rep.breaker.Register(g.o.reg)
	g.byURL[u] = rep
	g.all = append(g.all, rep)
	return rep, true, nil
}

// replicaList copies the replica collection for iteration outside the
// lock (join order, grow-only).
func (g *Gate) replicaList() []*replica {
	g.repMu.Lock()
	defer g.repMu.Unlock()
	return append([]*replica(nil), g.all...)
}

// Obs exposes the gate's metrics registry (scraping it is equivalent to
// GET /metrics).
func (g *Gate) Obs() *obs.Registry { return g.o.reg }

// Tracer exposes the gate's span tracer, for attaching a push exporter.
func (g *Gate) Tracer() *obs.Tracer { return g.o.tracer }

// Ready reports whether the gate would answer /readyz with 200: not
// draining and at least one replica passing its probe.
func (g *Gate) Ready() bool {
	rt := g.routing.Load()
	return !g.draining.Load() && rt != nil && rt.ring.Len() > 0
}

// CheckReplicas probes every replica's /readyz once, concurrently, and
// rebuilds the ring if membership changed. Run calls it on a timer;
// tests and RollingReload call it directly.
func (g *Gate) CheckReplicas(ctx context.Context) {
	var wg sync.WaitGroup
	for _, rep := range g.replicaList() {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			g.probe(ctx, rep)
		}(rep)
	}
	wg.Wait()
	g.rebuild()
}

// probe runs one /readyz pass against rep and reports the outcome to
// the membership set: a transport or protocol failure counts toward
// the eviction threshold, a decoded ready:false evicts immediately
// (the replica itself says it cannot serve), a decoded ready:true
// clears failures and (re)admits.
func (g *Gate) probe(ctx context.Context, rep *replica) {
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	st, err := g.readyzOnce(pctx, rep)
	if err != nil {
		rep.setStatus(replicaStatus{Error: err.Error()})
		g.members.ReportFailure(rep.url)
		return
	}
	st.Error = ""
	rep.setStatus(st)
	if st.Ready {
		g.members.ReportSuccess(rep.url)
	} else {
		g.members.MarkDown(rep.url)
	}
}

// rebuild swaps in a new routing generation when the membership epoch
// moved past the installed one, and refreshes the shard-share and
// readiness gauges. Epochs make staleness detection exact: equal
// epochs imply an identical alive set.
func (g *Gate) rebuild() {
	g.rebuildMu.Lock()
	defer g.rebuildMu.Unlock()
	alive, epoch := g.members.AliveEpoch()
	g.o.ready.Set(float64(len(alive)))

	cur := g.routing.Load()
	if cur != nil && cur.epoch == epoch {
		return
	}
	g.repMu.Lock()
	reps := make([]*replica, len(alive))
	for i, u := range alive {
		reps[i] = g.byURL[u]
	}
	g.repMu.Unlock()
	next := &routing{ring: NewRing(alive, g.cfg.VNodes), reps: reps, epoch: epoch}
	g.routing.Store(next)
	for _, rep := range g.replicaList() {
		rep.shareG.Set(0)
	}
	for i, rep := range reps {
		rep.shareG.Set(next.ring.Share(i))
	}
}

// Epoch returns the current membership epoch.
func (g *Gate) Epoch() uint64 { return g.members.Epoch() }

// fleetVersion returns the consensus default-model version /v1/fleet
// reports: the version most ready replicas serve, ties broken
// lexicographically. Empty when nothing is known.
func (g *Gate) fleetVersion() string {
	counts := map[string]int{}
	for _, rep := range g.replicaList() {
		if !rep.ready.Load() {
			continue
		}
		if v := rep.getStatus().ModelVersion; v != "" {
			counts[v]++
		}
	}
	best, bestN := "", 0
	for v, n := range counts {
		if n > bestN || (n == bestN && v > best) {
			best, bestN = v, n
		}
	}
	return best
}

// upstream is one attempt's result (or a gate-synthesized refusal).
type upstream struct {
	rep        *replica
	status     int
	header     http.Header
	body       []byte
	err        error
	canceled   bool
	hedged     bool
	synth      string // non-empty: gate-synthesized error body
	retryAfter int    // seconds, for synthesized 503s
}

// good reports whether the attempt should count as replica success:
// any response below 500 (4xx blames the request, not the replica).
func (u upstream) good() bool { return u.err == nil && u.status < 500 }

const maxRespBytes = 64 << 20

func synth(status int, msg string, retryAfter int) upstream {
	return upstream{status: status, synth: msg, retryAfter: retryAfter}
}

// send posts body to one replica and reads the full response.
func (g *Gate) send(ctx context.Context, rep *replica, path string, body []byte) upstream {
	if err := faultpoint.Inject(ctx, fpForward); err != nil {
		return upstream{rep: rep, err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+path, bytes.NewReader(body))
	if err != nil {
		return upstream{rep: rep, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	obs.InjectHTTP(ctx, req)
	resp, err := g.client.Do(req)
	if err != nil {
		return upstream{rep: rep, err: err}
	}
	defer resp.Body.Close()
	data, err := httpd.Read(io.LimitReader(resp.Body, maxRespBytes), resp.ContentLength)
	if err != nil {
		return upstream{rep: rep, err: err}
	}
	return upstream{rep: rep, status: resp.StatusCode, header: resp.Header, body: data}
}

// attempt launches one asynchronous upstream try. The goroutine itself
// records the breaker and metric outcome — even when the main loop has
// already returned with another replica's answer — so accounting never
// depends on who is still listening. A loser cancelled by
// first-response-wins records no failure: being slower is not being
// broken.
func (g *Gate) attempt(ctx context.Context, rep *replica, path string, body []byte, budget time.Duration, hedged bool, resCh chan<- upstream) context.CancelFunc {
	actx, cancel := context.WithCancelCause(ctx)
	go func() {
		// The attempt span parents under the gate's request span and is
		// what the replica's server span parents under in turn (send
		// injects this span's identity), so a fleet trace shows exactly
		// which attempt — primary or hedge — each replica answer belongs
		// to.
		sctx, span := obs.StartSpan(actx, "gate.attempt")
		span.SetAttr("replica", rep.url)
		if hedged {
			span.SetAttr("hedge", "true")
		}
		bctx, bcancel := resilience.WithBudget(sctx, budget)
		u := g.send(bctx, rep, path, body)
		bcancel()
		u.hedged = hedged
		switch {
		case u.err != nil && errors.Is(context.Cause(actx), errLostRace):
			u.canceled = true
			// Cancellation only happens via first-response-wins: another
			// attempt's answer was already accepted, making this one the
			// losing half of the race.
			span.SetAttr("hedge_loser", "true")
			rep.canceledC.Inc()
			// Release a half-open probe slot without claiming evidence:
			// the attempt was cancelled because another replica answered
			// first, not because this one failed.
			if rep.breaker.State() == resilience.BreakerHalfOpen {
				rep.breaker.RecordSuccess()
			}
		case u.good():
			span.SetAttrInt("status", int64(u.status))
			rep.breaker.RecordSuccess()
			if u.status >= 400 {
				rep.clientC.Inc()
			} else {
				rep.okC.Inc()
			}
		default:
			span.SetAttrInt("status", int64(u.status))
			span.SetError(u.err)
			rep.breaker.RecordFailure()
			rep.errC.Inc()
		}
		span.End()
		resCh <- u
	}()
	return func() { cancel(errLostRace) }
}

// errLostRace is the cancellation cause forward stamps on attempts it
// no longer needs because another replica's answer was accepted. The
// explicit cause — rather than comparing actx/parent Err() — keeps the
// loser classification exact even when the request context is torn down
// (handler returned, client gone) before the loser's goroutine wakes.
var errLostRace = errors.New("fleet: attempt lost the first-response race")

// forward routes one request body to the replica owning key, with
// breaker-aware failover along the ring successor order and (for single
// predicts) a hedge to the next successor when the primary is slow.
// First response wins; losers are cancelled.
func (g *Gate) forward(ctx context.Context, key uint64, path string, body []byte, hedge bool) upstream {
	rt := g.routing.Load()
	if rt == nil || rt.ring.Len() == 0 {
		return synth(http.StatusServiceUnavailable, "fleet: no ready replicas", 1)
	}
	order := rt.ring.Successors(key, rt.ring.Len())
	candidates := make([]*replica, len(order))
	for i, idx := range order {
		candidates[i] = rt.reps[idx]
	}

	// The failover chain is sequential, so the request budget is split
	// across the attempts we expect to make (primary + one more).
	per := resilience.SplitBudget(ctx, 2, 25*time.Millisecond)

	resCh := make(chan upstream, len(candidates))
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	launchIdx, launched := 0, 0
	launch := func(hedged bool) bool {
		for launchIdx < len(candidates) {
			rep := candidates[launchIdx]
			launchIdx++
			if rep.breaker.Allow() != nil {
				continue // short-circuit counted by the breaker's own metric
			}
			cancels = append(cancels, g.attempt(ctx, rep, path, body, per, hedged, resCh))
			launched++
			return true
		}
		return false
	}
	if !launch(false) {
		return synth(http.StatusServiceUnavailable, "fleet: every replica breaker is open",
			g.minRetryIn(candidates))
	}

	var hedgeC <-chan time.Time
	if hedge && g.cfg.HedgeAfter > 0 && len(candidates) > 1 {
		timer := time.NewTimer(g.cfg.HedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C
	}

	var last upstream
	for received := 0; received < launched; {
		select {
		case u := <-resCh:
			received++
			if u.canceled {
				continue
			}
			if u.good() {
				if u.hedged {
					g.o.hedgeWins.Inc()
				}
				return u
			}
			last = u
			if launch(false) {
				g.o.failovers.Inc()
			}
		case <-hedgeC:
			hedgeC = nil
			if launch(true) {
				g.o.hedges.Inc()
			}
		case <-ctx.Done():
			return synth(http.StatusGatewayTimeout, "fleet: request budget exhausted", 1)
		}
	}
	if last.rep == nil && last.synth == "" {
		return synth(http.StatusServiceUnavailable, "fleet: all attempts cancelled", 1)
	}
	return last
}

func (g *Gate) minRetryIn(candidates []*replica) int {
	min := 1
	for i, rep := range candidates {
		secs := int(rep.breaker.RetryIn()/time.Second) + 1
		if i == 0 || secs < min {
			min = secs
		}
	}
	return min
}

func (g *Gate) writeUpstream(w http.ResponseWriter, u upstream) {
	if u.synth != "" {
		if u.retryAfter > 0 && u.status != http.StatusGatewayTimeout {
			w.Header().Set("Retry-After", strconv.Itoa(u.retryAfter))
		}
		httpd.WriteError(w, u.status, u.synth)
		return
	}
	if u.err != nil {
		httpd.WriteError(w, http.StatusBadGateway, "fleet: upstream: "+u.err.Error())
		return
	}
	ct := u.header.Get("Content-Type")
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	if ra := u.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(u.status)
	w.Write(u.body)
}

// handlePredict splits a non-empty JSON array per shard, and answers 413
// as soon as an array passes MaxBatch items. Any other body — a single
// predict, malformed JSON, an empty array — goes whole to the replica
// its bytes route to, which answers it as a direct hit would.
func (g *Gate) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, ok := httpd.Request(w, r, g.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	items, err := jsonread.Elements(body, g.cfg.MaxBatch)
	switch {
	case errors.Is(err, jsonread.ErrTooMany):
		httpd.WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("batch exceeds limit %d", g.cfg.MaxBatch))
	case err == nil && len(items) > 0:
		g.predictBatch(w, r.Context(), items)
	default:
		g.writeUpstream(w, g.forward(r.Context(), routeKey(body), "/v1/predict", body, true))
	}
}

// predictBatch routes every item on its own bytes, forwards each
// shard's items as one sub-array concurrently, and splices the shards'
// answer elements back in request order. Items travel as the bytes the
// client sent and answers as the bytes the replicas wrote: the gate
// decodes neither.
func (g *Gate) predictBatch(w http.ResponseWriter, ctx context.Context, items [][]byte) {
	rt := g.routing.Load()
	if rt == nil || rt.ring.Len() == 0 {
		g.writeUpstream(w, synth(http.StatusServiceUnavailable, "fleet: no ready replicas", 1))
		return
	}
	keys := make([]uint64, len(items))
	byShard := make([][]int, rt.ring.Len())
	for i, item := range items {
		keys[i] = routeKey(item)
		shard := rt.ring.Shard(keys[i])
		byShard[shard] = append(byShard[shard], i)
	}
	var groups [][]int
	for _, idxs := range byShard {
		if len(idxs) > 0 {
			groups = append(groups, idxs)
		}
	}
	g.o.fanout.Observe(float64(len(groups)))
	if len(groups) > 1 {
		g.o.batchSplit.Inc()
	}

	answers := make([]upstream, len(groups))
	var wg sync.WaitGroup
	for gi, idxs := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := make([][]byte, len(idxs))
			for j, idx := range idxs {
				sub[j] = items[idx]
			}
			answers[gi] = g.forward(ctx, keys[idxs[0]], "/v1/predict", jsonArray(sub), false)
		}()
	}
	wg.Wait()

	out := make([][]byte, len(items))
	for gi, u := range answers {
		// A replica answers 400 when it cannot decode its items, and it
		// would fail the whole batch the same way: answer as a direct
		// hit would.
		if u.status == http.StatusBadRequest {
			g.writeUpstream(w, u)
			return
		}
		fillGroup(out, groups[gi], u)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(jsonArray(out), '\n'))
}

// jsonArray joins JSON values into one array the way encoding/json
// writes a slice, in one allocation with a byte to spare.
func jsonArray(elems [][]byte) []byte {
	n := 2
	for _, e := range elems {
		n += len(e) + 1
	}
	buf := append(make([]byte, 0, n), '[')
	for i, e := range elems {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, e...)
	}
	return append(buf, ']')
}

// fillGroup places one shard's answer elements at its items' request
// positions. A failed shard degrades to inline {"error": ...} items —
// the same contract replicas use for bad items, so one dead shard
// cannot fail the batch.
func fillGroup(out [][]byte, idxs []int, u upstream) {
	var elems [][]byte
	var msg string
	switch {
	case u.synth != "":
		msg = u.synth
	case u.err != nil:
		msg = "fleet: upstream: " + u.err.Error()
	case u.status != http.StatusOK:
		msg = fmt.Sprintf("fleet: shard answered HTTP %d: %s", u.status, truncate(u.body, 200))
	default:
		var err error
		if elems, err = jsonread.Elements(u.body, len(u.body)); err != nil {
			msg = "fleet: reading shard response: " + err.Error()
		} else if len(elems) != len(idxs) {
			msg = fmt.Sprintf("fleet: shard returned %d items for %d requests", len(elems), len(idxs))
		}
	}
	if msg != "" {
		item, _ := json.Marshal(map[string]string{"error": msg})
		for _, idx := range idxs {
			out[idx] = item
		}
		return
	}
	for j, idx := range idxs {
		out[idx] = elems[j]
	}
}

func (g *Gate) handleSuitability(w http.ResponseWriter, r *http.Request) {
	body, ok := httpd.Request(w, r, g.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	g.writeUpstream(w, g.forward(r.Context(), routeKey(body), "/v1/suitability", body, true))
}

// replicaView is the per-replica block of the /v1/fleet status body.
type replicaView struct {
	URL string `json:"url"`
	replicaStatus
	// Membership is the member-set state (alive, suspect, down) with
	// the consecutive probe-failure count behind it.
	Membership string  `json:"membership"`
	Fails      int     `json:"fails,omitempty"`
	Breaker    string  `json:"breaker"`
	Share      float64 `json:"share"`
}

func (g *Gate) fleetStatus() map[string]any {
	rt := g.routing.Load()
	shares := map[string]float64{}
	readyN := 0
	if rt != nil {
		for i, rep := range rt.reps {
			shares[rep.url] = rt.ring.Share(i)
		}
		readyN = rt.ring.Len()
	}
	reps := g.replicaList()
	views := make([]replicaView, 0, len(reps))
	for _, rep := range reps {
		info, _ := g.members.Get(rep.url)
		views = append(views, replicaView{
			URL:           rep.url,
			replicaStatus: rep.getStatus(),
			Membership:    info.State.String(),
			Fails:         info.Fails,
			Breaker:       rep.breaker.State().String(),
			Share:         shares[rep.url],
		})
	}
	return map[string]any{
		"ready":          g.Ready(),
		"epoch":          g.members.Epoch(),
		"replicas":       views,
		"replicas_ready": readyN,
		"model_version":  g.fleetVersion(),
	}
}

func (g *Gate) handleFleet(w http.ResponseWriter, r *http.Request) {
	httpd.WriteJSON(w, http.StatusOK, g.fleetStatus())
}

// handleJoin admits a replica announced at runtime: the URL is
// validated, probed synchronously, and — if its /readyz passes — in
// the ring before the call returns. Joining is idempotent; a known URL
// just refreshes its membership record.
func (g *Gate) handleJoin(w http.ResponseWriter, r *http.Request) {
	body, ok := httpd.Request(w, r, g.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	var req struct {
		URL string `json:"url"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.URL == "" {
		httpd.WriteError(w, http.StatusBadRequest, `fleet: join body must be {"url": "http://host:port"}`)
		return
	}
	rep, created, err := g.addReplica(req.URL)
	if err != nil {
		httpd.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	g.members.Join(rep.url, nil)
	g.probe(r.Context(), rep)
	g.rebuild()
	info, _ := g.members.Get(rep.url)
	httpd.WriteJSON(w, http.StatusOK, map[string]any{
		"url":        rep.url,
		"new":        created,
		"membership": info.State.String(),
		"epoch":      g.members.Epoch(),
	})
}

func (g *Gate) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := g.fleetStatus()
	if g.Ready() {
		httpd.WriteJSON(w, http.StatusOK, st)
		return
	}
	w.Header().Set("Retry-After", "1")
	httpd.WriteJSON(w, http.StatusServiceUnavailable, st)
}

func (g *Gate) handleHealthz(w http.ResponseWriter, r *http.Request) {
	alive, epoch := g.members.AliveEpoch()
	httpd.WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"replicas":       len(g.replicaList()),
		"replicas_ready": len(alive),
		"epoch":          epoch,
		"uptime_seconds": time.Since(g.o.start).Seconds(),
	})
}

func (g *Gate) handleReload(w http.ResponseWriter, r *http.Request) {
	results, err := g.RollingReload(r.Context())
	if err != nil {
		httpd.WriteJSON(w, http.StatusBadGateway, map[string]any{
			"error":    err.Error(),
			"replicas": results,
		})
		return
	}
	httpd.WriteJSON(w, http.StatusOK, map[string]any{"reloaded": true, "replicas": results})
}

// Handler returns the routed gate handler.
func (g *Gate) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/healthz", g.instrument("healthz", http.MethodGet, g.handleHealthz))
	mux.Handle("/readyz", g.instrument("readyz", http.MethodGet, g.handleReadyz))
	mux.Handle("/metrics", g.instrument("metrics", http.MethodGet, g.o.reg.Handler().ServeHTTP))
	mux.Handle("/v1/predict", g.instrument("predict", http.MethodPost, g.handlePredict))
	mux.Handle("/v1/suitability", g.instrument("suitability", http.MethodPost, g.handleSuitability))
	mux.Handle("/v1/fleet", g.instrument("fleet", http.MethodGet, g.handleFleet))
	mux.Handle("/v1/fleet/join", g.instrument("join", http.MethodPost, g.handleJoin))
	mux.Handle("/v1/fleet/reload", g.instrument("reload", http.MethodPost, g.handleReload))
	mux.Handle("/", g.instrument("other", "", func(w http.ResponseWriter, r *http.Request) {
		httpd.WriteError(w, http.StatusNotFound, fmt.Sprintf("no route %s", r.URL.Path))
	}))
	obs.MountDebug(mux, g.o.tracer)
	return mux
}

// instrument wraps a handler with method check, drain refusal, the
// optional request budget, a root span and per-endpoint metrics. Probes
// bypass the drain refusal.
func (g *Gate) instrument(endpoint, method string, h http.HandlerFunc) http.Handler {
	probe := endpoint == "healthz" || endpoint == "readyz"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &httpd.Recorder{ResponseWriter: w}
		ctx, span := obs.StartSpan(obs.ExtractHTTP(obs.WithTracer(r.Context(), g.o.tracer), r), "gate."+endpoint)
		span.SetAttr("method", r.Method)
		span.SetAttr("path", r.URL.Path)

		switch {
		case method != "" && r.Method != method:
			httpd.WriteError(rec, http.StatusMethodNotAllowed, fmt.Sprintf("%s requires %s", r.URL.Path, method))
		case !probe && g.draining.Load():
			rec.Header().Set("Retry-After", "1")
			httpd.WriteError(rec, http.StatusServiceUnavailable, "gate is draining")
		default:
			r = r.WithContext(ctx)
			if g.cfg.Budget > 0 && (endpoint == "predict" || endpoint == "suitability") {
				bctx, cancel := resilience.WithBudget(ctx, g.cfg.Budget)
				h(rec, r.WithContext(bctx))
				cancel()
			} else {
				h(rec, r)
			}
		}

		dur := time.Since(start)
		span.SetAttrInt("status", int64(rec.Status))
		span.End()
		g.o.gateRequests.Observe(endpoint, rec.Status, dur)
	})
}

// Run serves on addr until ctx is cancelled, probing replicas at
// HealthInterval, then drains in-flight requests for up to DrainTimeout.
func (g *Gate) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return g.serve(ctx, ln)
}

// upstreamIdleTimeout drops idle connections to replicas before a
// replica's own httpd.IdleTimeout closes them: net/http does not replay
// a POST it has already written, so reusing a connection the replica is
// closing would turn into a failover.
const upstreamIdleTimeout = httpd.IdleTimeout * 3 / 4

func (g *Gate) serve(ctx context.Context, ln net.Listener) error {
	g.CheckReplicas(ctx)
	healthCtx, stopHealth := context.WithCancel(ctx)
	defer stopHealth()
	go func() {
		ticker := time.NewTicker(g.cfg.HealthInterval)
		defer ticker.Stop()
		for {
			select {
			case <-healthCtx.Done():
				return
			case <-ticker.C:
				g.CheckReplicas(healthCtx)
			}
		}
	}()
	return httpd.Serve(ctx, ln, g.Handler(), g.cfg.DrainTimeout, func() { g.draining.Store(true) })
}

func truncate(b []byte, n int) string {
	s := string(bytes.TrimSpace(b))
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}
