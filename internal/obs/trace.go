package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is the exported form of a completed span — what the ring
// buffer retains and the JSONL sink writes, one object per line.
type SpanRecord struct {
	TraceID  string    `json:"trace_id"`
	SpanID   string    `json:"span_id"`
	ParentID string    `json:"parent_id,omitempty"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	// DurationSeconds is End-Start in seconds.
	DurationSeconds float64 `json:"duration_seconds"`
	Attrs           []Attr  `json:"attrs,omitempty"`
}

// Tracer collects completed spans into a bounded in-memory ring (the
// backing store of /debug/traces) and, optionally, a JSONL sink.
// Methods are safe for concurrent use.
type Tracer struct {
	mu   sync.Mutex
	ring []SpanRecord // circular; len==cap once full
	next int          // ring insertion point
	size int

	sinkMu sync.Mutex
	sink   io.Writer

	// push, when set, receives every exported span for delivery to an
	// obsd aggregator. An atomic pointer so the unset (common) case
	// costs one load on the export path and nothing on the span path.
	push atomic.Pointer[Pusher]

	seed  uint64
	idctr atomic.Uint64
}

// DefaultRingSize is the span retention of a tracer built with ring
// size <= 0.
const DefaultRingSize = 512

// NewTracer returns a tracer retaining the last ringSize completed
// spans (<= 0 means DefaultRingSize). A non-nil sink additionally
// receives every completed span as one JSON line.
func NewTracer(ringSize int, sink io.Writer) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	var seed [8]byte
	rand.Read(seed[:])
	return &Tracer{
		size: ringSize,
		ring: make([]SpanRecord, 0, ringSize),
		sink: sink,
		seed: binary.LittleEndian.Uint64(seed[:]),
	}
}

// newID derives a unique 64-bit id: a process-random seed mixed with a
// counter through splitmix64, so ids never collide within a tracer and
// are unpredictable across processes.
func (t *Tracer) newID() uint64 {
	x := t.seed + t.idctr.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// SetPusher attaches (or, with nil, detaches) a span push exporter:
// every subsequently exported span is also enqueued for delivery to the
// aggregation plane. The caller owns the pusher's lifecycle (Close).
func (t *Tracer) SetPusher(p *Pusher) {
	t.push.Store(p)
}

// Record exports a complete span record directly — for callers that
// synthesize spans with externally determined identities, like
// napel-loadgen's deterministic seed-derived client spans.
func (t *Tracer) Record(rec SpanRecord) {
	if t == nil {
		return
	}
	t.export(rec)
}

func (t *Tracer) export(rec SpanRecord) {
	t.mu.Lock()
	if len(t.ring) < t.size {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.next] = rec
	}
	t.next = (t.next + 1) % t.size
	t.mu.Unlock()

	if p := t.push.Load(); p != nil {
		p.Enqueue(rec)
	}

	if t.sink != nil {
		line, err := json.Marshal(rec)
		if err != nil {
			return
		}
		line = append(line, '\n')
		t.sinkMu.Lock()
		t.sink.Write(line)
		t.sinkMu.Unlock()
	}
}

// Snapshot returns the retained span records, oldest first.
func (t *Tracer) Snapshot() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.ring))
	if len(t.ring) == t.size {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Span is one timed operation within a trace. A nil *Span is valid and
// inert: every method is a no-op, which is what StartSpan returns when
// the context carries no tracer. A span's attributes belong to the
// goroutine that started it; End must be called exactly once.
type Span struct {
	tracer   *Tracer
	name     string
	traceID  uint64
	spanID   uint64
	parentID uint64
	start    time.Time
	attrs    []Attr
	ended    atomic.Bool
}

type tracerKey struct{}
type spanKey struct{}

// WithTracer returns a context whose StartSpan calls record into t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFromContext returns the context's tracer, or nil.
func TracerFromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// SpanFromContext returns the active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan opens a span named name under the context's active span
// (same trace), under a remote span context extracted from an incoming
// request (joining the caller's trace), or as a new trace root, using
// the context's tracer. With no tracer on the context it returns
// (ctx, nil) — the nil span's methods all no-op, so call sites need no
// conditionals.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	var tracer *Tracer
	if parent != nil {
		tracer = parent.tracer
	} else {
		tracer = TracerFromContext(ctx)
	}
	if tracer == nil {
		return ctx, nil
	}
	s := &Span{
		tracer: tracer,
		name:   name,
		spanID: tracer.newID(),
		start:  time.Now(),
	}
	switch {
	case parent != nil:
		s.traceID = parent.traceID
		s.parentID = parent.spanID
	default:
		if rc, ok := RemoteFromContext(ctx); ok && rc.Valid() {
			s.traceID = rc.TraceID
			s.parentID = rc.SpanID
		} else {
			s.traceID = tracer.newID()
		}
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// SetAttr annotates the span; no-op on nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetAttrInt annotates the span with an integer value; no-op on nil.
func (s *Span) SetAttrInt(key string, value int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.FormatInt(value, 10)})
}

// SetError records err on the span; no-op on nil or nil error.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: "error", Value: err.Error()})
}

// TraceID returns the span's 16-hex-digit trace id, or "" on nil.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return formatID(s.traceID)
}

// SpanID returns the span's 16-hex-digit id, or "" on nil.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return formatID(s.spanID)
}

// Discard completes the span without exporting it — for optimistic
// spans whose operation turned out to be a no-op, like a worker's idle
// lease poll. Safe on nil; a span already ended stays exported.
func (s *Span) Discard() {
	if s == nil {
		return
	}
	s.ended.CompareAndSwap(false, true)
}

// End completes the span and exports it. Safe on nil; second and later
// calls are ignored.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	// The three IDs share one string, so a span costs one allocation
	// for them, not three.
	var b [48]byte
	putID(b[0:16], s.traceID)
	putID(b[16:32], s.spanID)
	n := 32
	if s.parentID != 0 {
		putID(b[32:48], s.parentID)
		n = 48
	}
	ids := string(b[:n])
	rec := SpanRecord{
		TraceID:         ids[0:16],
		SpanID:          ids[16:32],
		ParentID:        ids[32:],
		Name:            s.name,
		Start:           s.start,
		DurationSeconds: time.Since(s.start).Seconds(),
		Attrs:           s.attrs,
	}
	s.tracer.export(rec)
}

func formatID(id uint64) string {
	var b [16]byte
	putID(b[:], id)
	return string(b[:])
}

// putID writes id into b as 16 lowercase hex digits.
func putID(b []byte, id uint64) {
	const hex = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		b[i] = hex[id&0xf]
		id >>= 4
	}
}
