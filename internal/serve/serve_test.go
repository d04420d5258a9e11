package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"napel/internal/httpd"
	"napel/internal/napel"
	"napel/internal/nmcsim"
)

func makeRequest(f *fixtureData, arch WireArch, threads int) PredictRequest {
	return PredictRequest{Profile: NewWireProfile(f.prof), Arch: arch, Threads: threads}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// metricValue scrapes one unlabeled sample from /metrics text.
func metricValue(t *testing.T, metrics, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, metrics)
	return 0
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func TestServerPredictSingleAndCache(t *testing.T) {
	f := fixture(t)
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := makeRequest(f, WireArch{}, f.threads)
	resp, body := postJSON(t, ts.URL+"/v1/predict", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got PredictResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want := f.predA.Predict(f.prof, nmcsim.DefaultConfig(), f.threads)
	if got.IPC != want.IPC || got.EPI != want.EPI || got.TimeSec != want.TimeSec ||
		got.EnergyJ != want.EnergyJ || got.EDP != want.EDP || got.TotalInstrs != want.TotalInstrs {
		t.Fatalf("served prediction diverged:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Cached {
		t.Fatal("first request served from cache")
	}
	if got.Model != DefaultModelName || len(got.ModelVersion) != 16 {
		t.Fatalf("metadata missing: %+v", got)
	}

	_, body = postJSON(t, ts.URL+"/v1/predict", req)
	var again PredictResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("identical request missed the cache")
	}
	if again.IPC != got.IPC || again.EDP != got.EDP {
		t.Fatal("cached response differs from computed response")
	}
}

// TestServerPredictBatch is the acceptance scenario: a batch of 100
// distinct requests matches the direct Predictor output item by item,
// and an identical second batch is served (almost) entirely from cache,
// verified through /metrics.
func TestServerPredictBatch(t *testing.T) {
	f := fixture(t)
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 100
	reqs := make([]PredictRequest, n)
	for i := range reqs {
		reqs[i] = makeRequest(f, WireArch{PEs: 4 + i}, 1+i%16)
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict", reqs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got []PredictResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("%d responses, want %d", len(got), n)
	}
	for i, g := range got {
		if g.Error != "" {
			t.Fatalf("item %d failed: %s", i, g.Error)
		}
		cfg := nmcsim.DefaultConfig()
		cfg.PEs = 4 + i
		want := f.predA.Predict(f.prof, cfg, 1+i%16)
		if g.IPC != want.IPC || g.EPI != want.EPI || g.EDP != want.EDP {
			t.Fatalf("item %d diverged:\ngot  %+v\nwant %+v", i, g, want)
		}
	}

	// Second identical batch: >= 90% cache hits per the acceptance bar
	// (in practice 100%).
	_, body = postJSON(t, ts.URL+"/v1/predict", reqs)
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, g := range got {
		if g.Cached {
			cached++
		}
	}
	if cached < n*9/10 {
		t.Fatalf("only %d/%d items cached", cached, n)
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	if hits := metricValue(t, metrics, "napel_serve_cache_hits_total"); hits < n*9/10 {
		t.Fatalf("cache hits = %g, want >= %d", hits, n*9/10)
	}
	if served := metricValue(t, metrics, "napel_serve_predictions_total"); served != 2*n {
		t.Fatalf("predictions served = %g, want %d", served, 2*n)
	}
}

func TestServerErrorPaths(t *testing.T) {
	f := fixture(t)
	s, _ := newTestServer(t, Config{MaxBatch: 4, MaxBodyBytes: 1 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	check := func(wantStatus int, resp *http.Response, body []byte) {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d: %s", resp.StatusCode, wantStatus, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("no error message in %s", body)
		}
	}

	// Unknown model.
	req := makeRequest(f, WireArch{}, 1)
	req.Model = "nope"
	resp, body := postJSON(t, ts.URL+"/v1/predict", req)
	check(http.StatusNotFound, resp, body)

	// Bad profile (feature count mismatch).
	bad := makeRequest(f, WireArch{}, 1)
	bad.Profile.Features = map[string]float64{"mix_mem": 1}
	resp, body = postJSON(t, ts.URL+"/v1/predict", bad)
	check(http.StatusUnprocessableEntity, resp, body)

	// Bad architecture.
	badArch := makeRequest(f, WireArch{Core: "quantum"}, 1)
	resp, body = postJSON(t, ts.URL+"/v1/predict", badArch)
	check(http.StatusUnprocessableEntity, resp, body)

	// Garbage body.
	hr, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	check(http.StatusBadRequest, hr, data)

	// Empty batch.
	resp, body = postJSON(t, ts.URL+"/v1/predict", []PredictRequest{})
	check(http.StatusBadRequest, resp, body)

	// Oversized batch (limit 4).
	var batch []PredictRequest
	for i := 0; i < 5; i++ {
		batch = append(batch, makeRequest(f, WireArch{}, 1+i))
	}
	resp, body = postJSON(t, ts.URL+"/v1/predict", batch)
	check(http.StatusRequestEntityTooLarge, resp, body)

	// Batch with one bad item: whole batch 200, item error inline.
	mixed := []PredictRequest{makeRequest(f, WireArch{}, 1), {Model: "nope"}}
	resp, body = postJSON(t, ts.URL+"/v1/predict", mixed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch status %d", resp.StatusCode)
	}
	var mixedResp []PredictResponse
	if err := json.Unmarshal(body, &mixedResp); err != nil {
		t.Fatal(err)
	}
	if mixedResp[0].Error != "" || mixedResp[1].Error == "" {
		t.Fatalf("mixed batch errors wrong: %+v", mixedResp)
	}

	// A suitability body followed by more bytes is rejected whole, as a
	// predict body is.
	suit, err := json.Marshal(SuitabilityRequest{PredictRequest: makeRequest(f, WireArch{}, 1), Host: WireHost{EDP: 1}})
	if err != nil {
		t.Fatal(err)
	}
	hr, err = http.Post(ts.URL+"/v1/suitability", "application/json", bytes.NewReader(append(suit, " garbage"...)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(hr.Body)
	hr.Body.Close()
	check(http.StatusBadRequest, hr, data)

	// Method and route errors.
	if status, _ := getBody(t, ts.URL+"/v1/predict"); status != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict status %d", status)
	}
	if status, _ := getBody(t, ts.URL+"/v1/bogus"); status != http.StatusNotFound {
		t.Fatalf("bogus route status %d", status)
	}
}

func TestServerBodySizeLimit(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBodyBytes: 1024})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := strings.Repeat(" ", 2048) + "{}"
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestServerSuitability(t *testing.T) {
	f := fixture(t)
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	nmc := f.predA.Predict(f.prof, nmcsim.DefaultConfig(), f.threads)
	if nmc.EDP <= 0 {
		t.Fatalf("fixture prediction has EDP %g", nmc.EDP)
	}

	// Host clearly worse -> offload.
	req := SuitabilityRequest{
		PredictRequest: makeRequest(f, WireArch{}, f.threads),
		Host:           WireHost{EDP: nmc.EDP * 10},
	}
	resp, body := postJSON(t, ts.URL+"/v1/suitability", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SuitabilityResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Verdict != "offload" || sr.EDPReduction <= 1 {
		t.Fatalf("want offload verdict, got %+v", sr)
	}
	if sr.NMC.EDP != nmc.EDP {
		t.Fatalf("suitability EDP %g, want %g", sr.NMC.EDP, nmc.EDP)
	}

	// Host clearly better -> keep on host; derive EDP from time+energy.
	req.Host = WireHost{TimeSec: 1e-12, EnergyJ: nmc.EDP * 1e-6}
	_, body = postJSON(t, ts.URL+"/v1/suitability", req)
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Verdict != "host" {
		t.Fatalf("want host verdict, got %+v", sr)
	}

	// Missing host numbers -> 422.
	req.Host = WireHost{}
	resp, body = postJSON(t, ts.URL+"/v1/suitability", req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
}

func TestServerReloadEndpoint(t *testing.T) {
	f := fixture(t)
	s, modelPath := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v1, _ := s.registry.Get("")

	// Swap the weights on disk, reload, and confirm the new version.
	data, err := os.ReadFile(f.modelB)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(modelPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/models/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, body)
	}
	v2, _ := s.registry.Get("")
	if v1.Version == v2.Version {
		t.Fatal("reload kept the old version")
	}

	// Corrupt the file with an unsupported version, or save the model
	// under a reordered feature layout of the same size: 422, old
	// weights keep serving.
	swapped, err := napel.LoadPredictor(data)
	if err != nil {
		t.Fatal(err)
	}
	swapped.Names = append([]string(nil), swapped.Names...)
	swapped.Names[0], swapped.Names[1] = swapped.Names[1], swapped.Names[0]
	var swappedBytes bytes.Buffer
	if err := swapped.Save(&swappedBytes); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"bad-version":    []byte(`{"version":99}`),
		"swapped-layout": swappedBytes.Bytes(),
	} {
		if err := os.WriteFile(modelPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		resp, body = postJSON(t, ts.URL+"/v1/models/reload", nil)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s reload status %d: %s", name, resp.StatusCode, body)
		}
		resp, _ = postJSON(t, ts.URL+"/v1/predict", makeRequest(f, WireArch{}, f.threads))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict after failed %s reload: %d", name, resp.StatusCode)
		}
		if v, _ := s.registry.Get(""); v.Version != v2.Version {
			t.Fatalf("failed %s reload replaced the served version", name)
		}
	}

	// Remove the file entirely: 404 from the reload endpoint.
	if err := os.Remove(modelPath); err != nil {
		t.Fatal(err)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/models/reload", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing-file reload status %d", resp.StatusCode)
	}
}

func TestServerHealthzModelsMetrics(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := getBody(t, ts.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz %d: %s", status, body)
	}

	status, body = getBody(t, ts.URL+"/v1/models")
	if status != http.StatusOK || !strings.Contains(body, DefaultModelName) {
		t.Fatalf("models %d: %s", status, body)
	}

	status, body = getBody(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics %d", status)
	}
	for _, want := range []string{
		`napel_serve_requests_total{endpoint="healthz",class="2xx"}`,
		"napel_serve_request_duration_seconds_bucket",
		"napel_serve_models_loaded 1",
		"napel_serve_inflight_requests",
		"napel_serve_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestServerBackpressure verifies the 429 path: with MaxInFlight=1 and
// a request parked inside the handler, the next request is rejected
// immediately.
func TestServerBackpressure(t *testing.T) {
	f := fixture(t)
	s, _ := newTestServer(t, Config{MaxInFlight: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookPredict = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := makeRequest(f, WireArch{}, f.threads)
	firstDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/predict", req)
		firstDone <- resp.StatusCode
	}()
	<-entered

	resp, body := postJSON(t, ts.URL+"/v1/predict", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	if status := <-firstDone; status != http.StatusOK {
		t.Fatalf("parked request finished with %d", status)
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	if rejected := metricValue(t, metrics, "napel_serve_rejected_total"); rejected < 1 {
		t.Fatalf("rejected counter %g, want >= 1", rejected)
	}
}

// TestServerGracefulDrain starts the real serve loop, parks a request
// in flight, requests shutdown, and verifies the request completes
// before the server exits — the SIGTERM drain contract.
func TestServerGracefulDrain(t *testing.T) {
	f := fixture(t)
	s, _ := newTestServer(t, Config{DrainTimeout: 10 * time.Second})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookPredict = func() {
		once.Do(func() { close(entered) })
		<-release
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.serve(ctx, ln) }()
	url := fmt.Sprintf("http://%s", ln.Addr())

	type result struct {
		status int
		body   []byte
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, body := postJSON(t, url+"/v1/predict", makeRequest(f, WireArch{}, f.threads))
		reqDone <- result{resp.StatusCode, body}
	}()
	<-entered
	cancel()

	// The server must not exit while the request is parked.
	select {
	case err := <-serveDone:
		t.Fatalf("server exited with %v while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	res := <-reqDone
	if res.status != http.StatusOK {
		t.Fatalf("drained request status %d: %s", res.status, res.body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(res.body, &pr); err != nil || pr.Error != "" {
		t.Fatalf("drained request body: %s", res.body)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve returned %v", err)
	}

	// The listener is gone: new connections must fail.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}

// TestServerStalledBodyTimesOut: a client that sends a predict's
// headers, declaring a body, and then goes silent is cut off after
// httpd.ReadTimeout, and the MaxInFlight slot its request took comes free.
func TestServerStalledBodyTimesOut(t *testing.T) {
	defer func(d time.Duration) { httpd.ReadTimeout = d }(httpd.ReadTimeout)
	httpd.ReadTimeout = 200 * time.Millisecond
	s, _ := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.serve(ctx, ln) }()
	defer func() {
		cancel()
		<-serveDone
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "POST /v1/predict HTTP/1.1\r\nHost: napel\r\n"+
		"Content-Type: application/json\r\nContent-Length: 4096\r\n\r\n")
	for deadline := time.Now().Add(5 * time.Second); s.limiter.InUse() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stalled request never took a limiter slot")
		}
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection still open %v after its headers: %v", time.Since(start), err)
	}
	if n := s.limiter.InUse(); n != 0 {
		t.Fatalf("%d limiter slots still held after the stalled connection closed", n)
	}
}

// TestServerConcurrentMixedLoad hammers predict (single and batch),
// metrics and reload concurrently — run under -race this is the
// serving-path thread-safety audit.
func TestServerConcurrentMixedLoad(t *testing.T) {
	f := fixture(t)
	s, _ := newTestServer(t, Config{MaxInFlight: 128})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := map[int]struct{ ipc, edp float64 }{}
	for pes := 1; pes <= 8; pes++ {
		cfg := nmcsim.DefaultConfig()
		cfg.PEs = pes
		p := f.predA.Predict(f.prof, cfg, f.threads)
		want[pes] = struct{ ipc, edp float64 }{p.IPC, p.EDP}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				pes := 1 + (g+i)%8
				req := makeRequest(f, WireArch{PEs: pes}, f.threads)
				switch i % 3 {
				case 0, 1:
					resp, body := postJSON(t, ts.URL+"/v1/predict", req)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("predict status %d: %s", resp.StatusCode, body)
						return
					}
					var pr PredictResponse
					if err := json.Unmarshal(body, &pr); err != nil {
						t.Error(err)
						return
					}
					if w := want[pes]; pr.IPC != w.ipc || pr.EDP != w.edp {
						t.Errorf("pes=%d diverged under load", pes)
						return
					}
				case 2:
					if status, _ := getBody(t, ts.URL+"/metrics"); status != http.StatusOK {
						t.Errorf("metrics status %d", status)
						return
					}
				}
			}
		}(g)
	}
	// One goroutine reloading throughout, to race against predictions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			resp, body := postJSON(t, ts.URL+"/v1/models/reload", nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("reload status %d: %s", resp.StatusCode, body)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
}
