package serve

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"napel/internal/atomicfile"
	"napel/internal/resilience/faultpoint"
)

// TestReadyzLifecycle: a lazy server starts not-ready with the model
// file absent, flips ready once a reload installs the first generation,
// and goes not-ready again when draining — while /healthz stays 200
// throughout (liveness vs readiness).
func TestReadyzLifecycle(t *testing.T) {
	f := fixture(t)
	modelPath := filepath.Join(t.TempDir(), "model.json")
	s, err := New(Config{
		ModelPaths: map[string]string{DefaultModelName: modelPath},
		LazyLoad:   true,
	})
	if err != nil {
		t.Fatalf("lazy New with missing model: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := getBody(t, ts.URL+"/readyz"); code != 503 {
		t.Fatalf("/readyz before first model = %d, want 503", code)
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("/healthz before first model = %d, want 200", code)
	}
	// Predictions cannot be served yet (no degraded history either).
	resp, _ := postJSON(t, ts.URL+"/v1/predict", makeRequest(f, WireArch{}, f.threads))
	if resp.StatusCode != 404 {
		t.Fatalf("predict before first model = %d, want 404", resp.StatusCode)
	}

	// The model file appears (traind's first promotion); a reload
	// installs it and readiness flips.
	data, err := os.ReadFile(f.modelA)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(modelPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/models/reload", struct{}{}); resp.StatusCode != 200 {
		t.Fatalf("reload = %d: %s", resp.StatusCode, body)
	}
	if code, body := getBody(t, ts.URL+"/readyz"); code != 200 {
		t.Fatalf("/readyz after reload = %d: %s", code, body)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/predict", makeRequest(f, WireArch{}, f.threads))
	if resp.StatusCode != 200 {
		t.Fatalf("predict after reload = %d", resp.StatusCode)
	}

	// Draining: readiness drops, liveness stays, and the probe carries a
	// computed Retry-After.
	s.drainStart.Store(time.Now().UnixNano())
	s.draining.Store(true)
	rawResp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rawResp.Body.Close()
	if rawResp.StatusCode != 503 {
		t.Fatalf("/readyz while draining = %d, want 503", rawResp.StatusCode)
	}
	if ra, err := strconv.Atoi(rawResp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("draining Retry-After = %q, want integer >= 1", rawResp.Header.Get("Retry-After"))
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("/healthz while draining = %d, want 200", code)
	}
}

// TestLazyFollowInstallsFirstModelWithinTwoPolls: a lazy follower whose
// model file appears only after five follow polls found none installs it
// within two follow intervals, with the reload breaker closed and no
// follow failure counted: a poll that finds no model before the first
// install is not a failure, so the polls before the file existed did not
// trip the breaker into its cool-down.
func TestLazyFollowInstallsFirstModelWithinTwoPolls(t *testing.T) {
	f := fixture(t)
	modelPath := filepath.Join(t.TempDir(), "model.json")
	const interval = 200 * time.Millisecond
	s, err := New(Config{
		ModelPaths:     map[string]string{DefaultModelName: modelPath},
		LazyLoad:       true,
		FollowInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.serve(ctx, ln) }()
	defer func() {
		cancel()
		<-done
	}()
	url := "http://" + ln.Addr().String()

	time.Sleep(time.Second)
	data, err := os.ReadFile(f.modelA)
	if err != nil {
		t.Fatal(err)
	}
	if err := atomicfile.WriteFileData(modelPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	written := time.Now()
	for {
		code, body := getBody(t, url+"/readyz")
		if code == http.StatusOK {
			var ready struct{ Degraded bool }
			if err := json.Unmarshal([]byte(body), &ready); err != nil || ready.Degraded {
				t.Fatalf("/readyz once ready: %s (%v)", body, err)
			}
			break
		}
		if time.Since(written) > 2*interval {
			t.Fatalf("/readyz still %d %s after the file was written", code, time.Since(written).Round(time.Millisecond))
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, metrics := getBody(t, url+"/metrics")
	if v := metricValue(t, metrics, "napel_serve_follow_failures_total"); v != 0 {
		t.Fatalf("napel_serve_follow_failures_total = %g, want 0", v)
	}
}

// TestReloadBreakerFailureStorm: with the model file corrupted, repeated
// reloads trip the breaker; while it is open the endpoint answers 503
// with the cool-down as Retry-After without touching the file, and
// /v1/predict keeps serving the last good generation throughout.
func TestReloadBreakerFailureStorm(t *testing.T) {
	f := fixture(t)
	s, modelPath := newTestServer(t, Config{
		ReloadFailureThreshold: 2,
		ReloadCooldown:         time.Hour, // stays open for the whole test
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := os.WriteFile(modelPath, []byte("{not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/models/reload", struct{}{})
		if resp.StatusCode == 200 || resp.StatusCode == 503 {
			t.Fatalf("reload %d of corrupt model = %d, want a 4xx/5xx parse failure", i, resp.StatusCode)
		}
	}
	// Threshold reached: the breaker is open, the next reload is
	// short-circuited.
	resp, body := postJSON(t, ts.URL+"/v1/models/reload", struct{}{})
	if resp.StatusCode != 503 {
		t.Fatalf("reload with open breaker = %d: %s", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("open-breaker Retry-After = %q", resp.Header.Get("Retry-After"))
	}

	// The failure storm never interrupted serving.
	resp, _ = postJSON(t, ts.URL+"/v1/predict", makeRequest(f, WireArch{}, f.threads))
	if resp.StatusCode != 200 {
		t.Fatalf("predict during reload storm = %d", resp.StatusCode)
	}

	// The breaker surfaces in /metrics: state 1 (open), one trip.
	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`napel_resilience_breaker_state{name="serve.reload"} 1`,
		`napel_resilience_breaker_opens_total{name="serve.reload"} 1`,
	} {
		if !containsMetricLine(metrics, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestFollowSharesReloadBreaker: follow polls run behind the breaker
// that guards POST /v1/models/reload. With the watched file corrupted,
// two failed polls trip it; later polls short-circuit without counting
// as follow failures, the endpoint answers 503 with a Retry-After, and
// /v1/predict keeps serving the old generation.
func TestFollowSharesReloadBreaker(t *testing.T) {
	f := fixture(t)
	s, modelPath := newTestServer(t, Config{
		ReloadFailureThreshold: 2,
		ReloadCooldown:         time.Hour, // stays open for the whole test
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	before, _ := s.Registry().Get("")

	if err := os.WriteFile(modelPath, []byte("{not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	stop := func() { cancel(); <-done }
	defer stop()
	go func() {
		defer close(done)
		s.follow(ctx, time.Millisecond)
	}()
	const (
		failures      = "napel_serve_follow_failures_total"
		shortCircuits = `napel_resilience_breaker_short_circuits_total{name="serve.reload"}`
	)
	// waitFor scrapes /metrics until the named series reaches at least
	// min, and returns the scrape.
	waitFor := func(name string, min float64) string {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, metrics := getBody(t, ts.URL+"/metrics")
			if metricValue(t, metrics, name) >= min {
				return metrics
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached %g:\n%s", name, min, metrics)
			}
			time.Sleep(time.Millisecond)
		}
	}
	tripped := metricValue(t, waitFor(failures, 2), shortCircuits)
	metrics := waitFor(shortCircuits, tripped+3)
	stop()
	for name, want := range map[string]float64{
		failures: 2,
		`napel_resilience_breaker_state{name="serve.reload"}`:       1,
		`napel_resilience_breaker_opens_total{name="serve.reload"}`: 1,
	} {
		if v := metricValue(t, metrics, name); v != want {
			t.Fatalf("%s = %g, want %g", name, v, want)
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/models/reload", struct{}{})
	if resp.StatusCode != 503 {
		t.Fatalf("reload with the breaker follow polls opened = %d: %s", resp.StatusCode, body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("open-breaker Retry-After = %q", resp.Header.Get("Retry-After"))
	}

	resp, body = postJSON(t, ts.URL+"/v1/predict", makeRequest(f, WireArch{}, f.threads))
	if resp.StatusCode != 200 {
		t.Fatalf("predict after failed follow polls = %d: %s", resp.StatusCode, body)
	}
	var answer PredictResponse
	if err := json.Unmarshal(body, &answer); err != nil {
		t.Fatal(err)
	}
	if answer.ModelVersion != before.Version {
		t.Fatalf("predict served version %s, want the old generation's %s", answer.ModelVersion, before.Version)
	}
}

// TestDegradedAnswerSurvivesPredictFailure: a prediction computed under
// one model generation answers, flagged Degraded, when the predict path
// fails under a newer generation.
func TestDegradedAnswerSurvivesPredictFailure(t *testing.T) {
	t.Cleanup(faultpoint.Disable)
	f := fixture(t)
	s, modelPath := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := makeRequest(f, WireArch{}, f.threads)
	resp, body := postJSON(t, ts.URL+"/v1/predict", req)
	if resp.StatusCode != 200 {
		t.Fatalf("warm-up predict = %d: %s", resp.StatusCode, body)
	}
	var healthy PredictResponse
	if err := json.Unmarshal(body, &healthy); err != nil {
		t.Fatal(err)
	}

	// Install model B: the primary cache keys on version, so the warmed
	// entry no longer matches, but the degraded cache (feature hash
	// only) still holds the last good answer.
	data, err := os.ReadFile(f.modelB)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(modelPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/models/reload", struct{}{}); resp.StatusCode != 200 {
		t.Fatalf("reload to model B = %d", resp.StatusCode)
	}

	if err := faultpoint.Enable(9, "serve.predict:1"); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/predict", req)
	if resp.StatusCode != 200 {
		t.Fatalf("predict under injected failure = %d: %s", resp.StatusCode, body)
	}
	var degraded PredictResponse
	if err := json.Unmarshal(body, &degraded); err != nil {
		t.Fatal(err)
	}
	if !degraded.Degraded {
		t.Fatalf("response not marked degraded: %+v", degraded)
	}
	if degraded.IPC != healthy.IPC || degraded.EDP != healthy.EDP {
		t.Fatal("degraded answer does not match the last good prediction")
	}

	// A request with no degraded history fails with 503, not a fake
	// answer.
	fresh := makeRequest(f, WireArch{PEs: 12}, f.threads)
	resp, _ = postJSON(t, ts.URL+"/v1/predict", fresh)
	if resp.StatusCode != 503 {
		t.Fatalf("predict with no last-good answer = %d, want 503", resp.StatusCode)
	}

	_, metrics := getBody(t, ts.URL+"/metrics")
	if v := metricValue(t, metrics, "napel_serve_degraded_total"); v != 1 {
		t.Fatalf("napel_serve_degraded_total = %v, want 1", v)
	}
	if v := metricValue(t, metrics, "napel_chaos_injected_total"); v < 2 {
		t.Fatalf("napel_chaos_injected_total = %v, want >= 2", v)
	}
}

// TestDegradedAnswerStaysWithItsModel: with two models loaded, a
// last-good answer stands in only for the model that computed it. A
// failed predict on b must not serve a's answer under b's name.
func TestDegradedAnswerStaysWithItsModel(t *testing.T) {
	t.Cleanup(faultpoint.Disable)
	f := fixture(t)
	// One response cache entry: warming a second input evicts the
	// first, so asking for it again reaches the predict path.
	s, _ := newTestServer(t, Config{
		ModelPaths:   map[string]string{"a": f.modelA, "b": f.modelB},
		CacheEntries: 1,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqA := makeRequest(f, WireArch{}, f.threads)
	reqA.Model = "a"
	other := makeRequest(f, WireArch{PEs: 12}, f.threads)
	other.Model = "a"
	var warm PredictResponse
	for i, req := range []PredictRequest{reqA, other} {
		resp, body := postJSON(t, ts.URL+"/v1/predict", req)
		if resp.StatusCode != 200 {
			t.Fatalf("warm-up predict %d on a = %d: %s", i, resp.StatusCode, body)
		}
		if i == 0 {
			if err := json.Unmarshal(body, &warm); err != nil {
				t.Fatal(err)
			}
		}
	}

	if err := faultpoint.Enable(9, "serve.predict:1"); err != nil {
		t.Fatal(err)
	}
	reqB := reqA
	reqB.Model = "b"
	if resp, body := postJSON(t, ts.URL+"/v1/predict", reqB); resp.StatusCode != 503 {
		t.Fatalf("predict on b with only a's last-good answer = %d, want 503: %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict", reqA)
	if resp.StatusCode != 200 {
		t.Fatalf("predict on a under injected failure = %d: %s", resp.StatusCode, body)
	}
	var degraded PredictResponse
	if err := json.Unmarshal(body, &degraded); err != nil {
		t.Fatal(err)
	}
	if !degraded.Degraded || degraded.Model != "a" {
		t.Fatalf("a's answer under failure: %+v, want degraded and model a", degraded)
	}
	if math.Float64bits(degraded.IPC) != math.Float64bits(warm.IPC) || math.Float64bits(degraded.EDP) != math.Float64bits(warm.EDP) {
		t.Fatalf("degraded answer %+v does not match a's warm answer %+v", degraded, warm)
	}
}

// TestPredictBudgetExhausted: with a vanishing budget, single predicts
// answer 504 and batch items fail fast with a budget error instead of
// stalling the whole batch.
func TestPredictBudgetExhausted(t *testing.T) {
	f := fixture(t)
	s, _ := newTestServer(t, Config{PredictBudget: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/predict", makeRequest(f, WireArch{}, f.threads))
	if resp.StatusCode != 504 {
		t.Fatalf("predict with spent budget = %d, want 504", resp.StatusCode)
	}

	batch := []PredictRequest{
		makeRequest(f, WireArch{}, 1),
		makeRequest(f, WireArch{}, 2),
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict", batch)
	if resp.StatusCode != 200 {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var items []PredictResponse
	if err := json.Unmarshal(body, &items); err != nil {
		t.Fatal(err)
	}
	for i, item := range items {
		if item.Error == "" {
			t.Fatalf("batch item %d served despite spent budget: %+v", i, item)
		}
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	if v := metricValue(t, metrics, "napel_serve_deadline_exhausted_total"); v < 3 {
		t.Fatalf("napel_serve_deadline_exhausted_total = %v, want >= 3", v)
	}
}

// TestRetryAfterComputedWhenSaturated: the 429 path advertises a
// computed integer Retry-After (not the old hardcoded "1" semantics —
// still >= 1, but derived from observed latency and queue pressure).
func TestRetryAfterComputedWhenSaturated(t *testing.T) {
	f := fixture(t)
	s, _ := newTestServer(t, Config{MaxInFlight: 1})
	release := make(chan struct{})
	var once sync.Once
	s.testHookPredict = func() {
		once.Do(func() { <-release })
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		postJSON(t, ts.URL+"/v1/predict", makeRequest(f, WireArch{}, f.threads))
	}()
	for s.limiter.InUse() == 0 {
		time.Sleep(time.Millisecond)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/predict", makeRequest(f, WireArch{}, f.threads))
	close(release)
	<-done
	if resp.StatusCode != 429 {
		t.Fatalf("saturated predict = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 30 {
		t.Fatalf("saturated Retry-After = %q, want integer in [1, 30]", resp.Header.Get("Retry-After"))
	}
}

// TestQueueWaitAdmitsWhenSlotFrees: with a positive QueueWait a request
// beyond MaxInFlight waits for a slot instead of being shed.
func TestQueueWaitAdmitsWhenSlotFrees(t *testing.T) {
	f := fixture(t)
	s, _ := newTestServer(t, Config{MaxInFlight: 1, QueueWait: 5 * time.Second})
	release := make(chan struct{})
	var once sync.Once
	s.testHookPredict = func() {
		once.Do(func() { <-release })
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan struct{})
	go func() {
		defer close(first)
		postJSON(t, ts.URL+"/v1/predict", makeRequest(f, WireArch{}, f.threads))
	}()
	for s.limiter.InUse() == 0 {
		time.Sleep(time.Millisecond)
	}
	second := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/predict", makeRequest(f, WireArch{}, f.threads))
		second <- resp.StatusCode
	}()
	for s.limiter.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-first
	if code := <-second; code != 200 {
		t.Fatalf("queued request = %d, want 200", code)
	}
}

func containsMetricLine(metrics, line string) bool {
	for _, l := range splitLines(metrics) {
		if l == line {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
