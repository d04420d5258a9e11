// Package collectd distributes the napel collection engine across
// machines: a coordinator (embedded in napel-traind) leases planned
// (kernel, input) units to remote napel-worker processes over a small
// stdlib-only HTTP protocol, and an active-learning scheduler decides
// which units are worth simulating at all.
//
// The coordinator plugs into the engine as a napel.UnitExecutor
// (Options.Executor): planning, per-unit retry, quarantine, checkpoints
// and deterministic plan-order assembly all stay in the engine, so the
// assembled TrainingData is byte-identical to single-machine collection
// regardless of worker count, worker failures, or lease timing. The
// protocol carries unit *payloads* (pre-built samples), which JSON
// round-trips exactly — the same argument the resume checkpoint relies
// on — and every payload is verified by content hash before acceptance.
//
// Lease state machine:
//
//	pending --Lease()--> leased --Complete(ok)--------> delivered
//	   ^                   |  \--Complete(error)------> delivered (engine retries/quarantines)
//	   |                   |  \--Complete(bad hash)---> requeued (front of queue)
//	   +---- TTL expiry ---+      (heartbeats extend the TTL)
//
// A unit abandoned by the engine (job cancelled) is dropped at the next
// touch. Completing an expired or unknown lease returns ErrUnknownLease
// to the worker and changes nothing — after expiry the unit is owed a
// result by someone else, and whichever execution finishes first wins;
// both produce the identical payload, so the race is invisible in the
// output.
package collectd

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"napel/internal/member"
	"napel/internal/napel"
	"napel/internal/obs"
)

// Protocol errors surfaced to workers with distinct HTTP statuses.
var (
	// ErrUnknownLease rejects a completion for a lease that expired (and
	// was requeued) or never existed.
	ErrUnknownLease = errors.New("collectd: unknown or expired lease")
	// ErrPayloadHash rejects a completion whose payload bytes do not
	// match their declared sha256; the unit is requeued immediately.
	ErrPayloadHash = errors.New("collectd: payload hash mismatch")
)

// Config configures a Coordinator. The zero value is usable.
type Config struct {
	// LeaseTTL is how long a leased unit may go without a heartbeat
	// before it is requeued for another worker (default 15s).
	LeaseTTL time.Duration
	// WorkerExpiry is how long a registered worker may go without any
	// contact (lease poll, heartbeat, completion) before it is
	// deregistered from the membership set (default 4×LeaseTTL).
	WorkerExpiry time.Duration
	// Journal, when non-nil, makes lease state crash-durable: queue
	// transitions are appended and verified completions fsynced, so a
	// coordinator restarted after SIGKILL replays finished units from
	// disk instead of re-executing them. See OpenJournal.
	Journal *Journal
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Registry receives the napel_collectd_* series, which are also the
	// counts Stats reports. When nil the coordinator keeps them on a
	// private registry. Coordinators that share a registry share its
	// counts.
	Registry *obs.Registry
	// Tracer, when non-nil, records the worker-protocol handler spans
	// RegisterAPI mounts (lifecycle.NewManager passes the manager's
	// tracer, so lease-grant and completion spans share the daemon's
	// ring).
	Tracer *obs.Tracer
	// Now is the clock, injectable for deterministic expiry tests.
	Now func() time.Time
}

// unitOutcome is what a unit's Execute call unblocks on.
type unitOutcome struct {
	payload *napel.UnitPayload
	err     error
}

// unit is one enqueued spec awaiting a worker-produced payload.
type unit struct {
	spec      napel.UnitSpec
	done      chan unitOutcome
	abandoned bool
	requeues  int
}

// lease is one worker's claim on a unit.
type lease struct {
	id       string
	u        *unit
	worker   string
	deadline time.Time
}

// Coordinator hands planned units to workers and routes their payloads
// back to the blocked engine calls. All methods are safe for concurrent
// use.
type Coordinator struct {
	cfg Config
	o   *coordObs

	// members is the worker registry: workers auto-register (with
	// capability tags) at lease time, heartbeats and completions renew
	// them, and silence past WorkerExpiry deregisters them.
	members *member.Set

	mu      sync.Mutex
	pending []*unit // FIFO; requeued units go to the front
	leases  map[string]*lease
	seq     uint64

	lastUnmatched time.Time // rate-limits the no-compatible-worker log
}

// NewCoordinator returns a coordinator ready to serve workers.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.WorkerExpiry <= 0 {
		cfg.WorkerExpiry = 4 * cfg.LeaseTTL
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Coordinator{
		cfg:    cfg,
		leases: map[string]*lease{},
	}
	c.members = member.NewSet(member.Config{
		// A lease poll proves reachability, so joins are admissions;
		// deregistration is purely expiry-driven (workers have no
		// probe loop aimed at them — they call us).
		JoinAlive:   true,
		ExpireAfter: cfg.WorkerExpiry,
		Now:         cfg.Now,
		OnChange: func(ev member.Event) {
			c.o.workerChange(ev.Change)
			c.logf("collectd: worker %s %s (membership epoch %d)", ev.Name, ev.Change, ev.Epoch)
		},
	})
	c.o = newCoordObs(cfg.Registry, c)
	return c
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Executor adapts the coordinator to the engine's executor hook:
// `opts.Executor = coordinator.Executor()` turns any Collect variant
// into a distributed run.
func (c *Coordinator) Executor() napel.UnitExecutor { return c.Execute }

// Execute enqueues one unit and blocks until a worker delivers its
// payload (or terminal error), the lease machinery requeueing as needed
// underneath. It is called by the engine with its usual per-unit
// concurrency, so the engine's Workers option bounds the units offered
// to the worker fleet at once.
func (c *Coordinator) Execute(ctx context.Context, spec napel.UnitSpec) (*napel.UnitPayload, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "collectd.unit")
	span.SetAttr("key", spec.Key)
	defer span.End()

	// A journaled completion from before a coordinator crash answers
	// the unit straight from disk — same spec hash, re-verified payload
	// — so restarted runs only pay workers for units that never landed.
	if c.cfg.Journal != nil {
		sh := specHash(spec)
		if body, ok := c.cfg.Journal.replayable(spec.Key, sh); ok {
			var p napel.UnitPayload
			if json.Unmarshal(body, &p) == nil && p.Check(spec) == nil {
				c.o.jReplays.Inc()
				span.SetAttr("result", "replayed")
				return &p, nil
			}
		}
		c.cfg.Journal.record(journalRecord{T: "enqueue", Key: spec.Key, Spec: sh}, false)
		c.o.jRecords.Inc()
	}

	u := &unit{spec: spec, done: make(chan unitOutcome, 1)}
	c.mu.Lock()
	c.pending = append(c.pending, u)
	c.mu.Unlock()
	c.o.enqueues.Inc()

	// The periodic tick bounds how stale an un-heartbeated lease can get
	// even when no worker traffic triggers the lazy expiry sweep.
	ticker := time.NewTicker(c.cfg.LeaseTTL / 2)
	defer ticker.Stop()
	for {
		select {
		case out := <-u.done:
			span.SetError(out.err)
			return out.payload, out.err
		case <-ctx.Done():
			c.abandon(u)
			span.SetError(ctx.Err())
			return nil, ctx.Err()
		case <-ticker.C:
			c.expire(c.cfg.Now())
		}
	}
}

// abandon marks a unit's Execute call as gone; the unit is dropped from
// the queue (or at its lease's next touch) instead of being re-leased.
func (c *Coordinator) abandon(u *unit) {
	c.mu.Lock()
	defer c.mu.Unlock()
	u.abandoned = true
	for i, p := range c.pending {
		if p == u {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
}

// Lease hands the oldest pending unit the worker's capability tags can
// execute to that worker, returning ok=false when no (compatible) work
// is available. Calling Lease registers the worker — with its tags — in
// the membership set; an untagged unit matches any worker, a tagged
// unit only workers advertising every one of its tags. The returned
// TTL tells the worker its heartbeat budget.
func (c *Coordinator) Lease(workerID string, tags []string) (Lease, bool) {
	now := c.cfg.Now()
	c.members.Join(workerID, tags)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	matched := false
	for i := 0; i < len(c.pending); i++ {
		u := c.pending[i]
		if u.abandoned {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			i--
			continue
		}
		if !member.HasAll(tags, u.spec.Tags) {
			continue
		}
		matched = true
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		c.seq++
		l := &lease{
			id:       fmt.Sprintf("l-%08x", c.seq),
			u:        u,
			worker:   workerID,
			deadline: now.Add(c.cfg.LeaseTTL),
		}
		c.leases[l.id] = l
		c.o.leases.Inc()
		if c.cfg.Journal != nil {
			c.cfg.Journal.record(journalRecord{T: "lease", Key: u.spec.Key, Lease: l.id, Worker: workerID}, false)
			c.o.jRecords.Inc()
		}
		return Lease{ID: l.id, TTLMillis: c.cfg.LeaseTTL.Milliseconds(), Spec: u.spec}, true
	}
	if len(c.pending) > 0 && !matched {
		// Every pending unit needs tags this worker lacks. Loud enough
		// to diagnose a stalled fleet, quiet enough not to flood: once
		// per 5s across all workers, plus a counter.
		c.o.unmatched.Inc()
		if now.Sub(c.lastUnmatched) >= 5*time.Second {
			c.lastUnmatched = now
			c.logf("collectd: worker %s (tags %v) matches none of %d pending unit(s); first needs %v",
				workerID, tags, len(c.pending), c.pending[0].spec.Tags)
		}
	}
	return Lease{}, false
}

// Heartbeat extends the given leases' deadlines and reports the ids
// that are no longer live — the worker's cue to abort those executions,
// because the units have been requeued for someone else.
func (c *Coordinator) Heartbeat(workerID string, ids []string) (unknown []string) {
	now := c.cfg.Now()
	c.members.Touch(workerID)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	for _, id := range ids {
		if l, ok := c.leases[id]; ok {
			l.deadline = now.Add(c.cfg.LeaseTTL)
		} else {
			unknown = append(unknown, id)
		}
	}
	return unknown
}

// Complete resolves a lease. payload/sum carry the unit's JSON payload
// and its sha256 (hex); remoteErr, when non-empty, reports that the
// worker's execution failed — that error is delivered to the engine,
// whose retry/quarantine policy decides what happens next. A payload
// whose bytes do not hash to sum never reaches the engine: the unit is
// requeued and ErrPayloadHash returned.
func (c *Coordinator) Complete(workerID, leaseID string, payload []byte, sum string, remoteErr string) error {
	now := c.cfg.Now()
	c.members.Touch(workerID)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)

	l, ok := c.leases[leaseID]
	if !ok {
		c.o.completed("unknown")
		return ErrUnknownLease
	}
	delete(c.leases, leaseID)
	u := l.u
	if u.abandoned {
		c.o.completed("abandoned")
		return nil
	}

	if remoteErr != "" {
		c.o.completed("error")
		c.deliverLocked(u, unitOutcome{err: fmt.Errorf("collectd: worker %s: %s", workerID, remoteErr)})
		return nil
	}

	got := sha256.Sum256(payload)
	if hex.EncodeToString(got[:]) != sum {
		c.o.completed("corrupt")
		c.requeueLocked(u)
		c.logf("collectd: worker %s returned corrupt payload for %s (lease %s); requeued", workerID, u.spec.Key, leaseID)
		return ErrPayloadHash
	}
	var p napel.UnitPayload
	if err := json.Unmarshal(payload, &p); err == nil {
		err = p.Check(u.spec)
		if err == nil {
			// Journal-then-deliver, fsynced: once the engine has seen
			// this payload it must survive any crash, or a restarted
			// run could assemble different bytes than this one did.
			if c.cfg.Journal != nil {
				c.cfg.Journal.record(journalRecord{
					T: "complete", Key: u.spec.Key, Spec: specHash(u.spec),
					Worker: workerID, SHA256: sum, Payload: json.RawMessage(payload),
				}, true)
				c.o.jRecords.Inc()
			}
			c.o.completed("ok")
			c.deliverLocked(u, unitOutcome{payload: &p})
			return nil
		}
		// A well-hashed payload that fails validation is a worker bug,
		// not transport corruption: deliver it as an execution error so
		// the engine's retry/quarantine policy rules, instead of
		// requeueing the same bug forever.
		c.o.completed("invalid")
		c.deliverLocked(u, unitOutcome{err: fmt.Errorf("collectd: worker %s: %w", workerID, err)})
		return nil
	} else {
		c.o.completed("invalid")
		c.deliverLocked(u, unitOutcome{err: fmt.Errorf("collectd: worker %s: undecodable payload: %w", workerID, err)})
		return nil
	}
}

// deliverLocked unblocks a unit's Execute call. The channel is buffered
// and each unit structurally receives at most one outcome (its lease is
// deleted before delivery), but guard anyway.
func (c *Coordinator) deliverLocked(u *unit, out unitOutcome) {
	select {
	case u.done <- out:
	default:
	}
}

// requeueLocked puts a still-owed unit at the front of the queue so
// stragglers recover with minimum latency.
func (c *Coordinator) requeueLocked(u *unit) {
	u.requeues++
	c.o.requeues.Inc()
	if c.cfg.Journal != nil {
		c.cfg.Journal.record(journalRecord{T: "requeue", Key: u.spec.Key}, false)
		c.o.jRecords.Inc()
	}
	c.pending = append([]*unit{u}, c.pending...)
}

// expire requeues every lease whose deadline has passed.
func (c *Coordinator) expire(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
}

func (c *Coordinator) expireLocked(now time.Time) {
	// Deregister workers silent past WorkerExpiry — the same sweep that
	// reaps their leases. OnChange handles the logging.
	c.members.ExpireStale()
	for id, l := range c.leases {
		if l.deadline.After(now) {
			continue
		}
		delete(c.leases, id)
		c.o.expired.Inc()
		if l.u.abandoned {
			continue
		}
		c.requeueLocked(l.u)
		c.logf("collectd: lease %s on %s (worker %s) expired; requeued", id, l.u.spec.Key, l.worker)
	}
}

// WorkerInfo is one registered worker in a Stats snapshot.
type WorkerInfo struct {
	Tags     []string  `json:"tags,omitempty"`
	LastSeen time.Time `json:"last_seen"`
}

// Stats is a point-in-time snapshot of the coordinator, served by
// GET /v1/collect. Its counts are the coordinator's napel_collectd_*
// series: Completed, RemoteErrors and Corrupt are
// napel_collectd_completes_total{result="ok"}, {result="error"} and
// {result="corrupt"}; Requeued, Expired and Replayed are
// napel_collectd_requeues_total, napel_collectd_lease_expired_total and
// napel_collectd_journal_replayed_total.
type Stats struct {
	Pending      int                   `json:"pending"`
	Leased       int                   `json:"leased"`
	Completed    uint64                `json:"completed"`
	Requeued     uint64                `json:"requeued"`
	Expired      uint64                `json:"expired"`
	Corrupt      uint64                `json:"corrupt"`
	RemoteErrors uint64                `json:"remote_errors"`
	Replayed     uint64                `json:"replayed,omitempty"`
	WorkerEpoch  uint64                `json:"worker_epoch"`
	Workers      map[string]WorkerInfo `json:"workers"`
}

// Stats snapshots the coordinator.
func (c *Coordinator) Stats() Stats {
	members := c.members.Snapshot()
	epoch := c.members.Epoch()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Pending:      len(c.pending),
		Leased:       len(c.leases),
		Completed:    c.o.completes["ok"].Value(),
		Requeued:     c.o.requeues.Value(),
		Expired:      c.o.expired.Value(),
		Corrupt:      c.o.completes["corrupt"].Value(),
		RemoteErrors: c.o.completes["error"].Value(),
		Replayed:     c.o.jReplays.Value(),
		WorkerEpoch:  epoch,
		Workers:      make(map[string]WorkerInfo, len(members)),
	}
	for _, m := range members {
		s.Workers[m.Name] = WorkerInfo{Tags: m.Tags, LastSeen: m.LastSeen}
	}
	return s
}

// Workers exposes the coordinator's worker membership set.
func (c *Coordinator) Workers() *member.Set { return c.members }

// queueDepths reports (pending, leased) for the gauges.
func (c *Coordinator) queueDepths() (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending), len(c.leases)
}

// hashPayload is the content hash both sides of the protocol compute
// over the exact payload bytes.
func hashPayload(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
