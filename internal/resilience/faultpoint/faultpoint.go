// Package faultpoint provides named, deterministic fault-injection
// hooks for chaos testing the NAPEL serving and training stack.
//
// Production code declares a point by calling Inject (or WrapWriter for
// partial-write faults) with a stable dotted name — "atomicfile.rename",
// "serve.predict", "engine.unit" — at the place where an I/O or compute
// step can fail. With no plan installed the call is a single atomic
// pointer load returning nil, so instrumented paths cost nothing in
// normal operation.
//
// A plan is installed globally from a seed and a spec string (the
// -chaos-seed / -chaos-spec flags on every binary, or Enable in tests):
//
//	point:prob            inject ErrInjected with probability prob
//	point:prob:latency=D  inject a ctx-aware sleep of D instead
//	point:prob:partial    (writer points) write a prefix, then fail
//
// Clauses are comma-separated; a point pattern is an exact name or a
// prefix ending in '*' ("atomicfile.*:0.2"). All randomness flows from
// one seeded xrand stream, so a fixed (seed, spec, workload) triple
// replays the same fault sequence — the property the chaos smoke stage
// in scripts/verify.sh and the byte-identity tests rely on.
package faultpoint

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"napel/internal/xrand"
)

// ErrInjected is the root of every injected error. Match with errors.Is
// to distinguish chaos from organic failures in tests and logs.
var ErrInjected = errors.New("faultpoint: injected fault")

// Mode is what firing a rule does.
type Mode int

const (
	// ModeError returns ErrInjected from Inject.
	ModeError Mode = iota
	// ModeLatency sleeps for the rule's duration (honoring ctx), then
	// lets the operation proceed.
	ModeLatency
	// ModePartial makes WrapWriter write roughly half of the next write
	// and then fail — the torn-write case for atomic publication code.
	ModePartial
)

type rule struct {
	pattern string // exact point name, or prefix before a trailing '*'
	prefix  bool
	prob    float64
	mode    Mode
	latency time.Duration
}

func (r *rule) matches(name string) bool {
	if r.prefix {
		return strings.HasPrefix(name, r.pattern)
	}
	return r.pattern == name
}

// Plan is a parsed fault-injection plan plus its seeded random stream
// and per-point fire counts.
type Plan struct {
	rules []rule

	mu  sync.Mutex
	rng *xrand.Rand

	injected atomic.Uint64 // total fires, all points and modes
	counts   sync.Map      // point name -> *atomic.Uint64
}

// active is the globally installed plan; nil means disabled. The
// pointer is the entire fast-path state.
var active atomic.Pointer[Plan]

// ParsePlan builds a plan from a seed and a spec string (see the
// package comment for the syntax). An empty spec yields a plan that
// never fires — useful for "chaos infrastructure on, no faults yet".
func ParsePlan(seed uint64, spec string) (*Plan, error) {
	p := &Plan{rng: xrand.New(seed)}
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("faultpoint: clause %q: want point:prob[:latency=D|partial]", clause)
		}
		r := rule{pattern: parts[0]}
		if r.pattern == "" {
			return nil, fmt.Errorf("faultpoint: clause %q names no point", clause)
		}
		if strings.HasSuffix(r.pattern, "*") {
			r.prefix = true
			r.pattern = strings.TrimSuffix(r.pattern, "*")
		}
		// Written so that NaN, which ParseFloat accepts and which fails
		// every comparison, is rejected too: its rule would never fire.
		prob, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || !(prob >= 0 && prob <= 1) {
			return nil, fmt.Errorf("faultpoint: clause %q: probability must be in [0, 1]", clause)
		}
		r.prob = prob
		if len(parts) == 3 {
			switch {
			case parts[2] == "partial":
				r.mode = ModePartial
			case strings.HasPrefix(parts[2], "latency="):
				d, err := time.ParseDuration(strings.TrimPrefix(parts[2], "latency="))
				if err != nil || d < 0 {
					return nil, fmt.Errorf("faultpoint: clause %q: bad latency", clause)
				}
				r.mode = ModeLatency
				r.latency = d
			default:
				return nil, fmt.Errorf("faultpoint: clause %q: unknown mode %q", clause, parts[2])
			}
		}
		p.rules = append(p.rules, r)
	}
	return p, nil
}

// Enable parses the spec and installs the plan globally, replacing any
// previous one.
func Enable(seed uint64, spec string) error {
	p, err := ParsePlan(seed, spec)
	if err != nil {
		return err
	}
	active.Store(p)
	return nil
}

// Disable removes the installed plan; every point reverts to a no-op.
func Disable() { active.Store(nil) }

// Active reports whether a plan is installed (even an empty one).
func Active() bool { return active.Load() != nil }

// TotalInjected returns how many faults the installed plan has fired;
// 0 with no plan. Exposed as napel_chaos_injected_total on the daemons.
func TotalInjected() uint64 {
	if p := active.Load(); p != nil {
		return p.injected.Load()
	}
	return 0
}

// Count returns how many times the named point has fired under the
// installed plan.
func Count(name string) uint64 {
	p := active.Load()
	if p == nil {
		return 0
	}
	if c, ok := p.counts.Load(name); ok {
		return c.(*atomic.Uint64).Load()
	}
	return 0
}

// decide draws the fate of one arrival at name: the first matching rule
// whose probability roll fires wins. The draw itself is deterministic
// in arrival order (one shared seeded stream).
func (p *Plan) decide(name string) (rule, bool) {
	for _, r := range p.rules {
		if !r.matches(name) || r.prob == 0 {
			continue
		}
		p.mu.Lock()
		hit := r.prob >= 1 || p.rng.Float64() < r.prob
		p.mu.Unlock()
		if hit {
			p.record(name)
			return r, true
		}
	}
	return rule{}, false
}

func (p *Plan) record(name string) {
	p.injected.Add(1)
	c, ok := p.counts.Load(name)
	if !ok {
		c, _ = p.counts.LoadOrStore(name, new(atomic.Uint64))
	}
	c.(*atomic.Uint64).Add(1)
}

// Inject is the standard fault hook: it returns ErrInjected (wrapped
// with the point name) when an error rule fires, sleeps when a latency
// rule fires (returning early with ctx.Err() if the context ends first),
// and returns nil otherwise. A nil ctx is treated as background.
func Inject(ctx context.Context, name string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	r, fired := p.decide(name)
	if !fired {
		return nil
	}
	switch r.mode {
	case ModeLatency:
		if ctx == nil {
			time.Sleep(r.latency)
			return nil
		}
		t := time.NewTimer(r.latency)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case ModePartial:
		// A partial rule reached through Inject (no writer to tear)
		// degrades to a plain error: the operation still fails.
		return fmt.Errorf("%w at %s", ErrInjected, name)
	default:
		return fmt.Errorf("%w at %s", ErrInjected, name)
	}
}

// WrapWriter arms a writer point: when a ModePartial rule fires, the
// returned writer passes roughly half of the next Write through to w
// and then fails every call — modeling a torn write or a disk filling
// mid-publication. When an error rule fires the first Write fails
// without writing. Otherwise w is returned unchanged.
func WrapWriter(name string, w io.Writer) io.Writer {
	p := active.Load()
	if p == nil {
		return w
	}
	r, fired := p.decide(name)
	if !fired || r.mode == ModeLatency {
		return w
	}
	return &tornWriter{w: w, name: name, partial: r.mode == ModePartial}
}

// tornWriter fails its stream, optionally after leaking a prefix.
type tornWriter struct {
	w       io.Writer
	name    string
	partial bool
	broken  bool
}

func (t *tornWriter) Write(b []byte) (int, error) {
	if t.broken {
		return 0, fmt.Errorf("%w at %s", ErrInjected, t.name)
	}
	t.broken = true
	if !t.partial {
		return 0, fmt.Errorf("%w at %s", ErrInjected, t.name)
	}
	n, err := t.w.Write(b[:len(b)/2])
	if err != nil {
		return n, err
	}
	return n, fmt.Errorf("%w at %s", ErrInjected, t.name)
}
