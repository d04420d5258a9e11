package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"napel/internal/obs"
)

// tracesResponse mirrors the /debug/traces JSON shape.
type tracesResponse struct {
	Count  int `json:"count"`
	Traces []struct {
		TraceID string           `json:"trace_id"`
		Name    string           `json:"name"`
		Spans   []obs.SpanRecord `json:"spans"`
	} `json:"traces"`
}

// TestBatchedPredictTrace is the tracing acceptance scenario: one
// batched /v1/predict request must surface at /debug/traces as a single
// trace whose root is the HTTP span with (at least) cache, assemble and
// predict child spans hanging off it.
func TestBatchedPredictTrace(t *testing.T) {
	f := fixture(t)
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	batch := []PredictRequest{
		makeRequest(f, WireArch{}, f.threads),
		makeRequest(f, WireArch{PEs: 16}, f.threads),
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}

	status, text := getBody(t, ts.URL+"/debug/traces?name=predict")
	if status != http.StatusOK {
		t.Fatalf("/debug/traces status %d", status)
	}
	var tr tracesResponse
	if err := json.Unmarshal([]byte(text), &tr); err != nil {
		t.Fatalf("decoding traces: %v\n%s", err, text)
	}
	if tr.Count != 1 {
		t.Fatalf("want exactly one trace containing a predict span, got %d:\n%s", tr.Count, text)
	}
	trace := tr.Traces[0]
	if trace.Name != "http.predict" {
		t.Fatalf("trace root is %q, want http.predict", trace.Name)
	}

	var rootID string
	children := map[string]int{}
	for _, sp := range trace.Spans {
		if sp.ParentID == "" {
			rootID = sp.SpanID
		}
	}
	if rootID == "" {
		t.Fatalf("trace has no root span:\n%s", text)
	}
	for _, sp := range trace.Spans {
		if sp.TraceID != trace.TraceID {
			t.Fatalf("span %s crossed traces", sp.Name)
		}
		if sp.ParentID != "" {
			children[sp.Name]++
		}
	}
	// Per batch item: assemble, cache, predict (all misses on a fresh
	// server) — at least one of each, i.e. >= 3 child spans.
	for _, want := range []string{"cache", "assemble", "predict"} {
		if children[want] < len(batch) {
			t.Fatalf("trace has %d %q child spans, want >= %d:\n%s", children[want], want, len(batch), text)
		}
	}
	if children["batch"] != 1 {
		t.Fatalf("trace has %d batch spans, want 1", children["batch"])
	}

	// The same request is visible in the per-stage histograms.
	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, stage := range []string{"cache", "assemble", "predict"} {
		line := `napel_serve_predict_stage_seconds_count{stage="` + stage + `"} 2`
		if !strings.Contains(metrics, line) {
			t.Fatalf("metrics missing %q:\n%s", line, metrics)
		}
	}
}

func TestMetricsContentTypeAndDeterminism(t *testing.T) {
	_ = fixture(t)
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io := resp.Header.Get("Content-Type")
	resp.Body.Close()
	if io != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", io)
	}

	_, first := getBody(t, ts.URL+"/metrics")
	_, second := getBody(t, ts.URL+"/metrics")
	// Time-derived gauges differ between scrapes; the set and order of
	// series must not.
	if names(first) != names(second) {
		t.Fatalf("metric order changed between scrapes:\n%s\nvs\n%s", names(first), names(second))
	}
	for _, want := range []string{
		`napel_build_info{binary="napel-serve",go_version="go`,
		"napel_serve_predict_stage_seconds_bucket",
		"# TYPE napel_serve_request_duration_seconds histogram",
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("metrics missing %q:\n%s", want, first)
		}
	}
}

// names reduces an exposition page to its series names, in order.
func names(text string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		b.WriteString(name)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestDebugRuntimeAndPprofMounted(t *testing.T) {
	_ = fixture(t)
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := getBody(t, ts.URL+"/debug/runtime")
	if status != http.StatusOK || !strings.Contains(body, "goroutines") {
		t.Fatalf("/debug/runtime -> %d: %s", status, body)
	}
	status, _ = getBody(t, ts.URL+"/debug/pprof/")
	if status != http.StatusOK {
		t.Fatalf("/debug/pprof/ -> %d", status)
	}
}

// TestAccessLogCarriesTraceID: the structured access log line for a
// request carries the same trace id the span ring recorded.
func TestAccessLogCarriesTraceID(t *testing.T) {
	f := fixture(t)
	var logBuf bytes.Buffer
	s, _ := newTestServer(t, Config{AccessLog: &logBuf})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/predict", makeRequest(f, WireArch{}, f.threads))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, body)
	}

	var traceID string
	for _, rec := range s.Tracer().Snapshot() {
		if rec.Name == "http.predict" {
			traceID = rec.TraceID
		}
	}
	if traceID == "" {
		t.Fatal("no http.predict span recorded")
	}
	sc := bufio.NewScanner(&logBuf)
	found := false
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "path=/v1/predict") {
			found = true
			if !strings.Contains(line, "trace_id="+traceID) {
				t.Fatalf("access log line missing trace id %s: %s", traceID, line)
			}
		}
	}
	if !found {
		t.Fatal("no access log line for /v1/predict")
	}
}

// TestTraceSinkJSONL: Config.TraceSink receives every completed span as
// parseable JSON lines.
func TestTraceSinkJSONL(t *testing.T) {
	f := fixture(t)
	var sink bytes.Buffer
	s, _ := newTestServer(t, Config{TraceSink: &sink})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/v1/predict", makeRequest(f, WireArch{}, f.threads))

	sc := bufio.NewScanner(&sink)
	var spanNames []string
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("sink line %q: %v", sc.Text(), err)
		}
		spanNames = append(spanNames, rec.Name)
	}
	joined := strings.Join(spanNames, ",")
	for _, want := range []string{"assemble", "cache", "predict", "http.predict"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace sink missing span %q: %v", want, spanNames)
		}
	}
}

// TestModelLoadStagesObserved: napel_serve_model_load_seconds counts
// fetch and decode once for the start-up load and once more for each
// generation installed later, by reload or by a follow poll; a poll
// that finds nothing new installs nothing and counts nothing. The hash
// stage counts only the installs whose content hash the registry ran
// beside the decode: a follow poll hashes in its fetch.
func TestModelLoadStagesObserved(t *testing.T) {
	s, modelPath := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	counts := func(want, wantHash float64) {
		t.Helper()
		_, metrics := getBody(t, ts.URL+"/metrics")
		for stage, want := range map[string]float64{"fetch": want, "decode": want, "hash": wantHash} {
			if n := metricValue(t, metrics, `napel_serve_model_load_seconds_count{stage="`+stage+`"}`); n != want {
				t.Fatalf("stage %s counted %g installs, want %g", stage, n, want)
			}
			if sum := metricValue(t, metrics, `napel_serve_model_load_seconds_sum{stage="`+stage+`"}`); sum <= 0 && stage != "fetch" {
				t.Fatalf("stage %s took %g s in all", stage, sum)
			}
		}
	}
	counts(1, 1)
	if resp, body := postJSON(t, ts.URL+"/v1/models/reload", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d: %s", resp.StatusCode, body)
	}
	counts(2, 2)
	if installed, err := s.reload(context.Background(), false); err != nil || installed != nil {
		t.Fatalf("follow poll of an unchanged model: installed=%v err=%v", installed, err)
	}
	counts(2, 2)
	modelB, err := os.ReadFile(fixture(t).modelB)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(modelPath, modelB, 0o644); err != nil {
		t.Fatal(err)
	}
	if installed, err := s.reload(context.Background(), false); err != nil || installed == nil {
		t.Fatalf("follow poll of a rewritten model: installed=%v err=%v", installed, err)
	}
	counts(3, 2)
}
