package collectd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"napel/internal/napel"
	"napel/internal/obs"
	"napel/internal/resilience"
	"napel/internal/resilience/faultpoint"
	"napel/internal/xrand"
)

// Worker-side faultpoints, active only under an installed chaos plan:
// fpLease fails a lease poll, fpComplete fails a completion delivery,
// and fpPayload corrupts the payload bytes *after* hashing — the hook
// the chaos harness uses to prove the coordinator's content-hash check
// actually rejects and requeues.
const (
	fpLease    = "collectd.lease"
	fpComplete = "collectd.complete"
	fpPayload  = "collectd.payload"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (the napel-traind
	// listener), e.g. http://10.0.0.1:9090.
	Coordinator string
	// ID names this worker in leases and coordinator stats.
	ID string
	// Tags advertise this worker's capabilities (e.g. architecture
	// families) at lease time; the coordinator only assigns units whose
	// required tags are all present here.
	Tags []string
	// PollInterval is the idle wait between lease polls when the
	// coordinator has no work (default 500ms).
	PollInterval time.Duration
	// ReconnectMax caps the jittered backoff between lease polls while
	// the coordinator is unreachable — a restarting coordinator is an
	// expected event the worker rides out, not a death sentence
	// (default 5s).
	ReconnectMax time.Duration
	// RequestTimeout bounds each protocol request (default 10s).
	RequestTimeout time.Duration
	// Seed seeds the retry jitter stream (default 1).
	Seed uint64
	// Client, when non-nil, overrides the HTTP client.
	Client *http.Client
	// Registry, when non-nil, receives napel_worker_* metrics and the
	// engine series of locally executed units.
	Registry *obs.Registry
	// Tracer, when non-nil, records a "worker.unit" span per executed
	// lease; the lease/heartbeat/complete requests it issues carry the
	// span's identity, so one trace covers the unit from lease grant at
	// the coordinator to payload completion.
	Tracer *obs.Tracer
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Worker pulls unit leases from a coordinator, executes them with the
// in-process reference executor, and reports payloads back, heartbeating
// while it works. Transient protocol failures are retried with jittered
// backoff behind a circuit breaker; a revoked lease aborts its unit
// mid-flight (the coordinator has already requeued it).
type Worker struct {
	cfg     WorkerConfig
	client  *http.Client
	breaker *resilience.Breaker
	o       *workerObs
}

// NewWorker validates cfg and returns a runnable worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if !strings.HasPrefix(cfg.Coordinator, "http://") && !strings.HasPrefix(cfg.Coordinator, "https://") {
		return nil, fmt.Errorf("collectd: coordinator URL %q must be http(s)", cfg.Coordinator)
	}
	cfg.Coordinator = strings.TrimRight(cfg.Coordinator, "/")
	if cfg.ID == "" {
		return nil, fmt.Errorf("collectd: worker needs an id")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 5 * time.Second
	}
	if cfg.ReconnectMax < cfg.PollInterval {
		cfg.ReconnectMax = cfg.PollInterval
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	w := &Worker{
		cfg:    cfg,
		client: cfg.Client,
		breaker: resilience.NewBreaker(resilience.BreakerConfig{
			Name:             "collectd_coordinator",
			FailureThreshold: 5,
			OpenTimeout:      2 * time.Second,
		}),
		o: newWorkerObs(cfg.Registry),
	}
	if w.client == nil {
		w.client = &http.Client{}
	}
	if cfg.Registry != nil {
		w.breaker.Register(cfg.Registry)
	}
	return w, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// retryPolicy is the jittered-backoff schedule for one protocol call.
func (w *Worker) retryPolicy(attempts int, base time.Duration) resilience.Policy {
	return resilience.Policy{
		MaxAttempts: attempts,
		BaseDelay:   base,
		MaxDelay:    2 * time.Second,
		Jitter:      0.2,
		Seed:        w.cfg.Seed,
	}
}

// Run polls for leases and executes them until ctx is cancelled. It
// returns nil on cancellation — shutting a worker down mid-unit is an
// expected event the lease machinery absorbs. An unreachable
// coordinator (restarting after a crash, network partition) is ridden
// out with a capped, seeded-jitter backoff: one log line when contact
// is lost, one when it returns, never a hot loop of connection-refused
// retries in between.
func (w *Worker) Run(ctx context.Context) error {
	w.logf("collectd: worker %s polling %s", w.cfg.ID, w.cfg.Coordinator)
	rng := xrand.New(w.cfg.Seed ^ 0x9e3779b97f4a7c15) // jitter stream distinct from retryPolicy's
	backoff := w.cfg.PollInterval
	failures := 0
	var downSince time.Time
	for ctx.Err() == nil {
		// The unit span is opened before the lease poll so the
		// coordinator's lease-grant span lands inside it; an idle or
		// failed poll discards the span rather than flooding the ring.
		uctx, root := obs.StartSpan(obs.WithTracer(ctx, w.cfg.Tracer), "worker.unit")
		root.SetAttr("worker", w.cfg.ID)
		lease, ok, err := w.lease(uctx)
		if err != nil {
			root.Discard()
			if ctx.Err() != nil {
				break
			}
			failures++
			if failures == 1 {
				downSince = time.Now()
				w.logf("collectd: worker %s: coordinator unreachable (%v); backing off up to %s between polls",
					w.cfg.ID, err, w.cfg.ReconnectMax)
			}
			w.o.reconnect.Inc()
			// Exponential with ±20% jitter, capped at ReconnectMax.
			d := backoff + time.Duration(float64(backoff)*0.2*(2*rng.Float64()-1))
			sleep(ctx, d)
			if backoff *= 2; backoff > w.cfg.ReconnectMax {
				backoff = w.cfg.ReconnectMax
			}
			continue
		}
		if failures > 0 {
			w.logf("collectd: worker %s: coordinator reachable again after %d failed poll(s) over %s",
				w.cfg.ID, failures, time.Since(downSince).Round(time.Millisecond))
			failures = 0
			backoff = w.cfg.PollInterval
		}
		if !ok {
			root.Discard()
			w.o.idle.Inc()
			sleep(ctx, w.cfg.PollInterval)
			continue
		}
		w.o.leases.Inc()
		root.SetAttr("lease", lease.ID)
		root.SetAttr("key", lease.Spec.Key)
		w.executeLease(uctx, lease)
		root.End()
	}
	return nil
}

// lease claims one unit, retrying transient failures.
func (w *Worker) lease(ctx context.Context) (Lease, bool, error) {
	var l Lease
	var got bool
	err := resilience.Do(ctx, w.retryPolicy(3, 100*time.Millisecond), func(ctx context.Context) error {
		if err := faultpoint.Inject(ctx, fpLease); err != nil {
			return err
		}
		status, err := w.post(ctx, "/v1/lease", leaseRequest{Worker: w.cfg.ID, Tags: w.cfg.Tags}, &l)
		if err != nil {
			return err
		}
		got = status == http.StatusOK
		return nil
	})
	return l, got, err
}

// executeLease runs one leased unit with a heartbeat goroutine keeping
// the lease alive; if a heartbeat learns the lease was revoked, the
// execution context is cancelled and the (requeued) unit abandoned here.
func (w *Worker) executeLease(ctx context.Context, l Lease) {
	ectx, cancel := context.WithCancel(ctx)
	defer cancel()
	ttl := time.Duration(l.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	var revoked atomic.Bool
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(ectx, func() {
			revoked.Store(true)
			cancel()
		}, l.ID, ttl/3)
	}()

	t0 := time.Now()
	payload, err := napel.ExecuteUnit(ectx, l.Spec, w.cfg.Registry)
	cancel()
	<-hbDone
	w.o.unitDone(err)

	if revoked.Load() {
		// Lease revoked mid-unit: the coordinator already requeued it;
		// reporting would only earn a 404.
		w.o.lost.Inc()
		w.logf("collectd: worker %s lost lease %s (%s) after %s", w.cfg.ID, l.ID, l.Spec.Key, time.Since(t0).Round(time.Millisecond))
		return
	}
	if ctx.Err() != nil {
		return // shutting down; let the lease expire
	}
	if err != nil {
		w.logf("collectd: worker %s unit %s failed: %v", w.cfg.ID, l.Spec.Key, err)
		w.complete(ctx, completeRequest{Worker: w.cfg.ID, Lease: l.ID, Error: err.Error()})
		return
	}
	body, merr := json.Marshal(payload)
	if merr != nil {
		w.complete(ctx, completeRequest{Worker: w.cfg.ID, Lease: l.ID, Error: fmt.Sprintf("encoding payload: %v", merr)})
		return
	}
	sum := hashPayload(body)
	if ferr := faultpoint.Inject(ctx, fpPayload); ferr != nil {
		// Chaos: flip a byte after hashing so the coordinator's content
		// check sees exactly what wire corruption would look like.
		body = append([]byte(nil), body...)
		body[len(body)/2] ^= 0x20
	}
	w.complete(ctx, completeRequest{Worker: w.cfg.ID, Lease: l.ID, Payload: body, SHA256: sum})
	w.logf("collectd: worker %s completed %s in %s", w.cfg.ID, l.Spec.Key, time.Since(t0).Round(time.Millisecond))
}

// heartbeatLoop extends the lease every interval until ctx ends; a
// heartbeat reporting the lease unknown calls revoke (which cancels the
// unit's execution).
func (w *Worker) heartbeatLoop(ctx context.Context, revoke func(), leaseID string, interval time.Duration) {
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			var resp heartbeatResponse
			_, err := w.post(ctx, "/v1/heartbeat", heartbeatRequest{Worker: w.cfg.ID, Leases: []string{leaseID}}, &resp)
			if err != nil {
				continue // transient; the TTL still has 2 more beats of slack
			}
			for _, id := range resp.Unknown {
				if id == leaseID {
					revoke()
					return
				}
			}
		}
	}
}

// complete delivers a unit outcome, retrying transient failures. A 404
// (lease expired under us, unit requeued) or 422 (we sent corrupt
// bytes) is permanent: the coordinator has already arranged recovery.
func (w *Worker) complete(ctx context.Context, req completeRequest) {
	err := resilience.Do(ctx, w.retryPolicy(5, 200*time.Millisecond), func(ctx context.Context) error {
		if err := faultpoint.Inject(ctx, fpComplete); err != nil {
			return err
		}
		_, err := w.post(ctx, "/v1/complete", req, nil)
		return err
	})
	if err != nil {
		w.logf("collectd: worker %s could not deliver %s: %v (unit will be requeued by lease expiry)", w.cfg.ID, req.Lease, err)
	}
}

// post issues one breaker-guarded JSON request and decodes the response
// into out (when non-nil and the status has a body to offer). It
// returns the status code; 4xx statuses become permanent errors (except
// the ones the caller treats as data), 5xx and transport errors are
// retryable and trip the breaker.
func (w *Worker) post(ctx context.Context, path string, in, out any) (int, error) {
	if err := w.breaker.Allow(); err != nil {
		return 0, err
	}
	body, err := json.Marshal(in)
	if err != nil {
		return 0, resilience.Permanent(err)
	}
	rctx, rcancel := context.WithTimeout(ctx, w.cfg.RequestTimeout)
	defer rcancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, resilience.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	obs.InjectHTTP(rctx, req)
	resp, err := w.client.Do(req)
	if err != nil {
		w.breaker.RecordFailure()
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		w.breaker.RecordSuccess()
		if out != nil {
			if err := json.NewDecoder(io.LimitReader(resp.Body, maxCompleteBytes)).Decode(out); err != nil {
				return resp.StatusCode, err
			}
		}
		return resp.StatusCode, nil
	case resp.StatusCode == http.StatusNoContent:
		w.breaker.RecordSuccess()
		return resp.StatusCode, nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		// The coordinator answered decisively; retrying the same request
		// cannot help. Not a breaker failure — the service is healthy.
		w.breaker.RecordSuccess()
		return resp.StatusCode, resilience.Permanent(fmt.Errorf("collectd: %s: %s", path, readAPIError(resp.Body)))
	default:
		w.breaker.RecordFailure()
		return resp.StatusCode, fmt.Errorf("collectd: %s: status %d", path, resp.StatusCode)
	}
}

// readAPIError extracts the {"error": ...} message, falling back to the
// raw body.
func readAPIError(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(b))
}

// sleep waits for d or ctx, whichever ends first.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
