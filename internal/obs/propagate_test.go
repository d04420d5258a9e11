package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func decodeJSONBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func scrapeRegistry(t *testing.T, reg *Registry) Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestTraceParentRoundTrip(t *testing.T) {
	h := FormatTraceParent(0xabc123, 0xdef456)
	if len(h) != 55 {
		t.Fatalf("header %q is %d bytes, want 55", h, len(h))
	}
	sc, ok := ParseTraceParent(h)
	if !ok {
		t.Fatalf("ParseTraceParent(%q) rejected own output", h)
	}
	if sc.TraceID != 0xabc123 || sc.SpanID != 0xdef456 {
		t.Fatalf("round trip = %+v, want {abc123 def456}", sc)
	}
}

func TestParseTraceParentHighHalfFallback(t *testing.T) {
	// A 128-bit upstream id whose low 64 bits are zero is still a legal
	// nonzero trace id; keep the high half rather than rejecting.
	h := "00-00000000000000ff0000000000000000-00000000000000aa-01"
	sc, ok := ParseTraceParent(h)
	if !ok || sc.TraceID != 0xff || sc.SpanID != 0xaa {
		t.Fatalf("high-half fallback: ok=%v sc=%+v", ok, sc)
	}
}

func TestParseTraceParentRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"00-0000000000000000000000000000000a-000000000000000b", // too short
		"00-0000000000000000000000000000000a-000000000000000b-01-extra",
		"ff-0000000000000000000000000000000a-000000000000000b-01", // invalid version
		"00-0000000000000000000000000000000A-000000000000000b-01", // uppercase hex
		"00-00000000000000000000000000000000-000000000000000b-01", // zero trace
		"00-0000000000000000000000000000000a-0000000000000000-01", // zero span
		"00-000000000000000000000000000000zz-000000000000000b-01", // non-hex
		"0g-0000000000000000000000000000000a-000000000000000b-01", // non-hex version
		"00-0000000000000000000000000000000a-000000000000000b-0x", // non-hex flags
	} {
		if sc, ok := ParseTraceParent(bad); ok {
			t.Errorf("ParseTraceParent(%q) accepted garbage: %+v", bad, sc)
		}
	}
}

// A client span injected into a request must become the server span's
// parent, same trace, across a real HTTP hop.
func TestInjectExtractHTTPJoinsTrace(t *testing.T) {
	serverTracer := NewTracer(8, nil)
	var mu sync.Mutex
	var serverTrace, serverParent string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := ExtractHTTP(WithTracer(r.Context(), serverTracer), r)
		_, span := StartSpan(ctx, "server.op")
		mu.Lock()
		serverTrace, serverParent = span.TraceID(), span.SpanID()
		_ = serverParent
		mu.Unlock()
		span.End()
	}))
	defer srv.Close()

	clientTracer := NewTracer(8, nil)
	ctx, clientSpan := StartSpan(WithTracer(context.Background(), clientTracer), "client.op")
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	InjectHTTP(ctx, req)
	if req.Header.Get(TraceParentHeader) == "" {
		t.Fatal("InjectHTTP set no header despite an active span")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	clientSpan.End()

	mu.Lock()
	defer mu.Unlock()
	if serverTrace != clientSpan.TraceID() {
		t.Fatalf("server trace %s, client trace %s — hop broke the trace", serverTrace, clientSpan.TraceID())
	}
	recs := serverTracer.Snapshot()
	if len(recs) != 1 || recs[0].ParentID != clientSpan.SpanID() {
		t.Fatalf("server span %+v not parented under client span %s", recs, clientSpan.SpanID())
	}
}

func TestInjectHTTPWithoutContextIsInert(t *testing.T) {
	req, _ := http.NewRequest(http.MethodGet, "http://example/", nil)
	InjectHTTP(context.Background(), req)
	if h := req.Header.Get(TraceParentHeader); h != "" {
		t.Fatalf("InjectHTTP on a bare context set %q", h)
	}
}

// A hop that extracts but never spans itself still forwards the
// caller's identity verbatim.
func TestInjectHTTPPassesRemoteThrough(t *testing.T) {
	in, _ := http.NewRequest(http.MethodGet, "http://example/", nil)
	in.Header.Set(TraceParentHeader, FormatTraceParent(0x1111, 0x2222))
	ctx := ExtractHTTP(context.Background(), in)
	out, _ := http.NewRequest(http.MethodGet, "http://example/next", nil)
	InjectHTTP(ctx, out)
	sc, ok := ParseTraceParent(out.Header.Get(TraceParentHeader))
	if !ok || sc.TraceID != 0x1111 || sc.SpanID != 0x2222 {
		t.Fatalf("pass-through = %+v ok=%v", sc, ok)
	}
}

// TestSpanFromHeaderMiddleware: a handler wrapped by Traced runs under
// one span that joins the trace of the caller's traceparent header.
func TestSpanFromHeaderMiddleware(t *testing.T) {
	tr := NewTracer(8, nil)
	srv := httptest.NewServer(Traced(tr, "handler.op", func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set(TraceParentHeader, FormatTraceParent(0xfeed, 0xbeef))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	recs := tr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d spans, want 1", len(recs))
	}
	if recs[0].TraceID != formatID(0xfeed) || recs[0].ParentID != formatID(0xbeef) {
		t.Fatalf("middleware did not join the remote trace: %+v", recs[0])
	}
}

func TestStartSpanRemoteParent(t *testing.T) {
	tr := NewTracer(8, nil)
	ctx := ContextWithRemote(WithTracer(context.Background(), tr), SpanContext{TraceID: 7, SpanID: 9})
	ctx, span := StartSpan(ctx, "joined")
	if span.TraceID() != formatID(7) {
		t.Fatalf("TraceID = %s, want %s", span.TraceID(), formatID(7))
	}
	// Children of the joined span stay local: same trace, local parent.
	_, child := StartSpan(ctx, "child")
	if child.TraceID() != formatID(7) {
		t.Fatalf("child trace = %s, want %s", child.TraceID(), formatID(7))
	}
	child.End()
	span.End()
	recs := tr.Snapshot()
	if recs[1].ParentID != formatID(9) {
		t.Fatalf("joined span parent = %q, want %s", recs[1].ParentID, formatID(9))
	}
	if recs[0].ParentID != span.SpanID() {
		t.Fatalf("child parent = %q, want local %s", recs[0].ParentID, span.SpanID())
	}
}

func TestPusherDeliversBatchesAndFlushesOnClose(t *testing.T) {
	var mu sync.Mutex
	var got []SpanBatch
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b SpanBatch
		if err := decodeJSONBody(r, &b); err != nil {
			t.Errorf("bad batch: %v", err)
		}
		mu.Lock()
		got = append(got, b)
		mu.Unlock()
	}))
	defer srv.Close()

	tr := NewTracer(64, nil)
	p := NewPusher(PushConfig{URL: srv.URL, Process: "test-proc", BatchSize: 4, FlushInterval: time.Hour})
	tr.SetPusher(p)
	for i := 0; i < 10; i++ {
		_, span := StartSpan(WithTracer(context.Background(), tr), "op")
		span.End()
	}
	p.Close()

	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, b := range got {
		if b.Process != "test-proc" {
			t.Errorf("batch process = %q", b.Process)
		}
		total += len(b.Spans)
	}
	if total != 10 {
		t.Fatalf("delivered %d spans across %d batches, want 10", total, len(got))
	}
	if p.Sent() != 10 || p.Dropped() != 0 {
		t.Fatalf("sent=%d dropped=%d, want 10/0", p.Sent(), p.Dropped())
	}
}

func TestPusherDropsWhenSaturated(t *testing.T) {
	inHandler := make(chan struct{})
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		<-release
	}))
	defer srv.Close()
	defer close(release)

	p := NewPusher(PushConfig{URL: srv.URL, Process: "p", Buffer: 1, BatchSize: 1, FlushInterval: time.Hour})
	p.Enqueue(SpanRecord{Name: "a"})
	<-inHandler                      // exporter is now blocked mid-POST
	p.Enqueue(SpanRecord{Name: "b"}) // fills the buffer
	p.Enqueue(SpanRecord{Name: "c"}) // must drop, not block
	if d := p.Dropped(); d != 1 {
		t.Fatalf("Dropped = %d, want 1", d)
	}
}

func TestPusherRegisterExposesCounters(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	p := NewPusher(PushConfig{URL: srv.URL, Process: "p"})
	defer p.Close()
	reg := NewRegistry()
	p.Register(reg)
	snap := scrapeRegistry(t, reg)
	for _, series := range []string{
		"napel_trace_push_spans_total",
		"napel_trace_push_dropped_total",
		"napel_trace_push_errors_total",
	} {
		if !snap.Has(series) {
			t.Errorf("missing %s", series)
		}
	}
}
