package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/build"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"napel/internal/httpd"
	"napel/internal/napel"
	"napel/internal/pisa"
	"napel/internal/serve"
	"napel/internal/workload"
)

// The fixture trains two small predictors once (DoE collection
// dominates test time) — the same shape serve's own fixture uses, but
// fleet tests live in another package and need their own copy.
type fixtureData struct {
	dir     string
	modelA  string
	modelB  string
	prof    *pisa.Profile
	threads int
	err     error
}

var (
	fixtureOnce sync.Once
	fixtureVal  fixtureData
)

// TestMain removes the fixture's model directory once every test has
// run, so a test run leaves nothing in the temporary directory.
func TestMain(m *testing.M) {
	code := m.Run()
	if fixtureVal.dir != "" {
		os.RemoveAll(fixtureVal.dir)
	}
	os.Exit(code)
}

func fixture(t *testing.T) *fixtureData {
	t.Helper()
	fixtureOnce.Do(func() { fixtureVal = buildFixture() })
	if fixtureVal.err != nil {
		t.Fatalf("building fixture: %v", fixtureVal.err)
	}
	return &fixtureVal
}

func buildFixture() fixtureData {
	var f fixtureData
	opts := napel.DefaultOptions()
	opts.ScaleFactor = 32
	opts.MaxIters = 1
	opts.TestScaleFactor = 16
	opts.TestMaxIters = 1
	opts.ProfileBudget = 30_000
	opts.SimBudget = 30_000
	opts.TrainArchs = opts.TrainArchs[:2]

	k, err := workload.ByName("atax")
	if err != nil {
		f.err = err
		return f
	}
	td, err := napel.Collect([]workload.Kernel{k}, opts)
	if err != nil {
		f.err = err
		return f
	}
	predA, err := napel.Train(td, 42)
	if err != nil {
		f.err = err
		return f
	}
	predB, err := napel.Train(td, 7)
	if err != nil {
		f.err = err
		return f
	}
	f.dir, err = os.MkdirTemp("", "napel-fleet-test")
	if err != nil {
		f.err = err
		return f
	}
	f.modelA = filepath.Join(f.dir, "model-a.json")
	f.modelB = filepath.Join(f.dir, "model-b.json")
	if f.err = saveModel(predA, f.modelA); f.err != nil {
		return f
	}
	if f.err = saveModel(predB, f.modelB); f.err != nil {
		return f
	}
	in := workload.Scale(k, workload.TestInput(k), opts.TestScaleFactor, opts.TestMaxIters)
	prof, err := napel.ProfileKernel(k, in, opts.ProfileBudget)
	if err != nil {
		f.err = err
		return f
	}
	f.prof = prof
	f.threads = in.Threads()
	return f
}

func saveModel(p *napel.Predictor, path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := p.Save(out); err != nil {
		return err
	}
	return out.Close()
}

// testReplica is one live napel-serve instance behind a toggleable
// fault/delay middleware, so tests can make a single replica slow or
// flaky without process-global fault points.
type testReplica struct {
	srv       *serve.Server
	ts        *httptest.Server
	modelPath string

	predicts  atomic.Int64
	delay     atomic.Int64 // ns added to /v1/predict
	failEvery atomic.Int64 // >0: every Nth predict answers 500
	failSeq   atomic.Int64
}

func (r *testReplica) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/v1/predict" {
			r.predicts.Add(1)
			if d := r.delay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if n := r.failEvery.Load(); n > 0 && r.failSeq.Add(1)%n == 0 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusInternalServerError)
				w.Write([]byte(`{"error":"injected replica fault"}`))
				return
			}
		}
		next.ServeHTTP(w, req)
	})
}

// testFleet is a gate over n real replicas, each serving its own copy
// of model A.
type testFleet struct {
	gate     *Gate
	ts       *httptest.Server
	replicas []*testReplica
}

func newTestFleet(t *testing.T, n int, mod func(*Config)) *testFleet {
	t.Helper()
	f := fixture(t)
	modelA, err := os.ReadFile(f.modelA)
	if err != nil {
		t.Fatal(err)
	}

	tf := &testFleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		rep := &testReplica{
			modelPath: filepath.Join(t.TempDir(), fmt.Sprintf("model-%d.json", i)),
		}
		if err := os.WriteFile(rep.modelPath, modelA, 0o644); err != nil {
			t.Fatal(err)
		}
		rep.srv, err = serve.New(serve.Config{
			ModelPaths:   map[string]string{serve.DefaultModelName: rep.modelPath},
			CacheEntries: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.ts = httptest.NewServer(rep.middleware(rep.srv.Handler()))
		t.Cleanup(rep.ts.Close)
		tf.replicas = append(tf.replicas, rep)
		urls[i] = rep.ts.URL
	}

	cfg := Config{
		Replicas:   urls,
		HedgeAfter: -1, // tests opt in explicitly
	}
	if mod != nil {
		mod(&cfg)
	}
	tf.gate, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tf.gate.CheckReplicas(context.Background())
	tf.ts = httptest.NewServer(tf.gate.Handler())
	t.Cleanup(tf.ts.Close)
	if !tf.gate.Ready() {
		t.Fatal("gate not ready after health pass")
	}
	return tf
}

func makeRequest(f *fixtureData, arch serve.WireArch, threads int) serve.PredictRequest {
	return serve.PredictRequest{Profile: serve.NewWireProfile(f.prof), Arch: arch, Threads: threads}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, data)
}

func postRaw(t *testing.T, url string, data []byte) (*http.Response, []byte) {
	t.Helper()
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

// requests generates n distinct predict requests by varying the arch.
func requests(f *fixtureData, n int) []serve.PredictRequest {
	out := make([]serve.PredictRequest, n)
	for i := range out {
		out[i] = makeRequest(f, serve.WireArch{PEs: 1 + i%32, FreqGHz: 1.25 + 0.25*float64(i/32)}, f.threads)
	}
	return out
}

// TestGateIdentityAndStableRouting: gate answers must be byte-identical
// to direct replica hits, and repeat requests must land on the replica
// that cached them.
func TestGateIdentityAndStableRouting(t *testing.T) {
	f := fixture(t)
	tf := newTestFleet(t, 3, nil)

	reqs := requests(f, 60)
	for i, req := range reqs {
		resp, body := postJSON(t, tf.ts.URL+"/v1/predict", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("req %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		var pr serve.PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Cached {
			t.Fatalf("req %d: fresh request reported cached", i)
		}
	}

	// Round 2: every repeat must hit the owning replica's cache — the
	// N-disjoint-LRUs property the ring exists for.
	for i, req := range reqs {
		gateResp, gateBody := postJSON(t, tf.ts.URL+"/v1/predict", req)
		if gateResp.StatusCode != http.StatusOK {
			t.Fatalf("repeat %d: HTTP %d", i, gateResp.StatusCode)
		}
		var pr serve.PredictResponse
		if err := json.Unmarshal(gateBody, &pr); err != nil {
			t.Fatal(err)
		}
		if !pr.Cached {
			t.Fatalf("repeat %d missed the fleet cache: routing is not stable", i)
		}

		// Bit-identical to a direct hit on the owning replica.
		raw, _ := json.Marshal(req)
		key := routeKey(raw)
		rt := tf.gate.routing.Load()
		owner := rt.reps[rt.ring.Shard(key)]
		_, directBody := postRaw(t, owner.url+"/v1/predict", raw)
		if !bytes.Equal(gateBody, directBody) {
			t.Fatalf("repeat %d: gate body differs from direct replica hit:\n gate: %s\ndirect: %s",
				i, gateBody, directBody)
		}
	}

	// The keyspace actually spread: every replica served something.
	for i, rep := range tf.replicas {
		if rep.predicts.Load() == 0 {
			t.Errorf("replica %d never saw a predict across 60 keys", i)
		}
	}
}

// TestGateBatchRoutesWhole: a batched body goes whole to the one
// replica its bytes route to, and its answers come back in request
// order, each equal to a single predict of its item.
func TestGateBatchRoutesWhole(t *testing.T) {
	f := fixture(t)
	tf := newTestFleet(t, 3, nil)

	reqs := requests(f, 24)
	raw, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	rt := tf.gate.routing.Load()
	owner := rt.reps[rt.ring.Shard(routeKey(raw))].url
	resp, body := postRaw(t, tf.ts.URL+"/v1/predict", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: HTTP %d: %s", resp.StatusCode, body)
	}
	for i, rep := range tf.replicas {
		want := int64(0)
		if rep.ts.URL == owner {
			want = 1
		}
		if got := rep.predicts.Load(); got != want {
			t.Errorf("replica %d saw %d predicts, want %d (owner %s)", i, got, want, owner)
		}
	}

	var got []serve.PredictResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("batch returned %d items for %d requests", len(got), len(reqs))
	}

	// Order check: item i's answer must equal a direct single predict
	// of request i (any replica computes the same model).
	direct := tf.replicas[0].ts.URL
	for i, req := range reqs {
		if got[i].Error != "" {
			t.Fatalf("item %d errored: %s", i, got[i].Error)
		}
		_, single := postJSON(t, direct+"/v1/predict", req)
		var want serve.PredictResponse
		if err := json.Unmarshal(single, &want); err != nil {
			t.Fatal(err)
		}
		if got[i].IPC != want.IPC || got[i].EDP != want.EDP || got[i].TimeSec != want.TimeSec {
			t.Fatalf("item %d out of order: got %+v want %+v", i, got[i], want)
		}
	}
}

// TestGateBatchBytesMatchDirect: a warm batch comes back from the gate
// byte for byte as one replica answers it directly.
func TestGateBatchBytesMatchDirect(t *testing.T) {
	f := fixture(t)
	tf := newTestFleet(t, 3, nil)
	reqs := requests(f, 24)

	// The first round fills the caches, so every item of both second
	// answers is "cached":true.
	var gateBody, directBody []byte
	for round := 0; round < 2; round++ {
		var resp *http.Response
		if resp, gateBody = postJSON(t, tf.ts.URL+"/v1/predict", reqs); resp.StatusCode != http.StatusOK {
			t.Fatalf("gate batch: HTTP %d: %s", resp.StatusCode, gateBody)
		}
		if resp, directBody = postJSON(t, tf.replicas[0].ts.URL+"/v1/predict", reqs); resp.StatusCode != http.StatusOK {
			t.Fatalf("direct batch: HTTP %d: %s", resp.StatusCode, directBody)
		}
	}
	if n := bytes.Count(gateBody, []byte(`"cached":true`)); n != len(reqs) {
		t.Fatalf("%d of %d warm items cached through the gate", n, len(reqs))
	}
	if !bytes.Equal(gateBody, directBody) {
		t.Fatalf("gate batch differs from the direct answer:\n  gate: %s\ndirect: %s", gateBody, directBody)
	}
}

// TestGateBatchMalformedPassthrough: a body a replica refuses reaches
// the client as the replica's own answer, byte for byte as a direct hit
// gets it: 400 for what it cannot decode, a bad item failing the whole
// batch, and 413 for a batch past the replica's item limit.
func TestGateBatchMalformedPassthrough(t *testing.T) {
	f := fixture(t)
	tf := newTestFleet(t, 2, nil)

	var mixed []any
	for i, req := range requests(f, 8) {
		if i == 4 {
			mixed = append(mixed, map[string]any{"threads": "not-a-number"})
		}
		mixed = append(mixed, req)
	}
	mixedBody, err := json.Marshal(mixed)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name   string
		body   []byte
		status int
	}{
		{"malformed batch", []byte(`[{"threads": "not-a-number"}]`), http.StatusBadRequest},
		{"malformed single", []byte(`{not json`), http.StatusBadRequest},
		{"mixed batch", mixedBody, http.StatusBadRequest},
		{"batch of 257", []byte("[" + strings.Repeat("{},", 256) + "{}]"), http.StatusRequestEntityTooLarge},
	} {
		resp, got := postRaw(t, tf.ts.URL+"/v1/predict", c.body)
		if resp.StatusCode != c.status {
			t.Fatalf("%s: HTTP %d, want %d: %s", c.name, resp.StatusCode, c.status, got)
		}
		if _, want := postRaw(t, tf.replicas[0].ts.URL+"/v1/predict", c.body); !bytes.Equal(got, want) {
			t.Fatalf("%s: gate answered %s, a direct hit %s", c.name, got, want)
		}
	}
}

// TestFleetBuildsWithoutServe pins the byte forwarder: no package
// internal/fleet builds from, directly or not, knows the predict wire
// format, so changing that format never edits the gate, and none reads
// JSON bodies apart, so the gate cannot split a batch.
func TestFleetBuildsWithoutServe(t *testing.T) {
	importer := map[string]string{} // repository package -> one package importing it
	queue := []string{"napel/internal/fleet"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		pkg, err := build.ImportDir(filepath.Join("..", "..", strings.TrimPrefix(path, "napel/")), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Imports {
			if _, seen := importer[imp]; !seen && strings.HasPrefix(imp, "napel/") {
				importer[imp] = path
				queue = append(queue, imp)
			}
		}
	}
	for dep, from := range importer {
		for _, banned := range []string{"napel/internal/serve", "napel/internal/napel", "napel/internal/pisa", "napel/internal/ml",
			"napel/internal/jsonread"} {
			if dep == banned || strings.HasPrefix(dep, banned+"/") {
				t.Errorf("%s imports %s", from, dep)
			}
		}
	}
}

// TestGateHedging: when the owning replica stalls, the gate hedges to
// the next ring successor and the fast answer wins.
func TestGateHedging(t *testing.T) {
	f := fixture(t)
	tf := newTestFleet(t, 3, func(c *Config) {
		c.HedgeAfter = 15 * time.Millisecond
	})

	// Find a request owned by replica 0.
	var req serve.PredictRequest
	rt := tf.gate.routing.Load()
	found := false
	for _, cand := range requests(f, 200) {
		raw, _ := json.Marshal(cand)
		if rt.reps[rt.ring.Shard(routeKey(raw))] == rt.reps[0] {
			req, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no request routed to replica 0 in 200 candidates")
	}
	slow := tf.replicas[0]
	if slow.ts.URL != rt.reps[0].url {
		// routing snapshot order matches construction order of ready reps
		for _, r := range tf.replicas {
			if r.ts.URL == rt.reps[0].url {
				slow = r
			}
		}
	}
	slow.delay.Store(int64(400 * time.Millisecond))

	start := time.Now()
	resp, body := postJSON(t, tf.ts.URL+"/v1/predict", req)
	dur := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged predict: HTTP %d: %s", resp.StatusCode, body)
	}
	if dur >= 400*time.Millisecond {
		t.Fatalf("answer took %s: hedge never raced the stalled primary", dur)
	}
	var buf bytes.Buffer
	tf.gate.Obs().WriteText(&buf)
	for _, want := range []string{"napel_fleet_hedges_total 1", "napel_fleet_hedge_wins_total 1"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, grepMetric(buf.String(), "napel_fleet_hedge"))
		}
	}
}

// TestGateFailoverAndBreaker: a hard-failing replica's keys fail over
// to ring successors with zero client-visible errors, and its breaker
// opens so later requests skip it entirely.
func TestGateFailoverAndBreaker(t *testing.T) {
	f := fixture(t)
	tf := newTestFleet(t, 3, func(c *Config) {
		c.BreakerThreshold = 3
		c.BreakerCooldown = time.Minute
	})
	dead := tf.replicas[2]
	dead.failEvery.Store(1) // every predict answers 500

	for i, req := range requests(f, 40) {
		resp, body := postJSON(t, tf.ts.URL+"/v1/predict", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("req %d during replica outage: HTTP %d: %s", i, resp.StatusCode, body)
		}
	}

	var deadRep *replica
	for _, rep := range tf.gate.all {
		if rep.url == dead.ts.URL {
			deadRep = rep
		}
	}
	if got := deadRep.breaker.State().String(); got != "open" {
		t.Fatalf("failing replica breaker state = %s, want open", got)
	}
	var buf bytes.Buffer
	tf.gate.Obs().WriteText(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("napel_fleet_failovers_total")) {
		t.Fatal("failovers_total missing from metrics")
	}

	// With the breaker open the dead replica is skipped pre-flight:
	// its predict count stops growing.
	before := dead.predicts.Load()
	for _, req := range requests(f, 20) {
		resp, _ := postJSON(t, tf.ts.URL+"/v1/predict", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("req with open breaker: HTTP %d", resp.StatusCode)
		}
	}
	if after := dead.predicts.Load(); after != before {
		t.Fatalf("open breaker still let %d requests through", after-before)
	}
}

// TestGateFlakyReplicaChaos: one replica failing 20% of predicts must
// not surface a single hard error through the gate — the acceptance
// criterion's chaos leg, replica-scoped instead of process-global.
func TestGateFlakyReplicaChaos(t *testing.T) {
	f := fixture(t)
	tf := newTestFleet(t, 3, func(c *Config) {
		c.BreakerThreshold = 5
		c.BreakerCooldown = 100 * time.Millisecond
	})
	tf.replicas[1].failEvery.Store(5) // 20% of predicts answer 500

	rng := rand.New(rand.NewSource(11))
	reqs := requests(f, 64)
	hard := 0
	for i := 0; i < 200; i++ {
		req := reqs[rng.Intn(len(reqs))]
		resp, _ := postJSON(t, tf.ts.URL+"/v1/predict", req)
		if resp.StatusCode >= 500 {
			hard++
		}
	}
	if hard != 0 {
		t.Fatalf("%d hard errors leaked through the gate under 20%% replica faults", hard)
	}
}

// TestGateRollingReload upgrades every replica's model file and rolls
// the fleet while clients hammer the gate: zero failed requests, and
// every replica ends on the new version.
func TestGateRollingReload(t *testing.T) {
	f := fixture(t)
	tf := newTestFleet(t, 3, nil)

	oldVersion := tf.gate.fleetVersion()
	modelB, err := os.ReadFile(f.modelB)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range tf.replicas {
		if err := os.WriteFile(rep.modelPath, modelB, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent load during the roll: every request must succeed.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failed atomic.Int64
	reqs := requests(f, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, _ := postJSON(t, tf.ts.URL+"/v1/predict", reqs[(w+i)%len(reqs)])
				if resp.StatusCode != http.StatusOK {
					failed.Add(1)
				}
			}
		}(w)
	}

	resp, body := postRaw(t, tf.ts.URL+"/v1/fleet/reload", nil)
	close(stop)
	wg.Wait()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rolling reload: HTTP %d: %s", resp.StatusCode, body)
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d requests failed during the rolling reload", n)
	}

	var rollResp struct {
		Reloaded bool                  `json:"reloaded"`
		Replicas []ReplicaReloadResult `json:"replicas"`
	}
	if err := json.Unmarshal(body, &rollResp); err != nil {
		t.Fatal(err)
	}
	if len(rollResp.Replicas) != 3 {
		t.Fatalf("roll covered %d replicas, want 3", len(rollResp.Replicas))
	}
	newVersion := rollResp.Replicas[0].ModelVersion
	if newVersion == "" || newVersion == oldVersion {
		t.Fatalf("roll did not change the version: old=%s new=%s", oldVersion, newVersion)
	}
	for _, r := range rollResp.Replicas {
		if !r.OK || r.ModelVersion != newVersion {
			t.Fatalf("replica %s: %+v, want ok on %s", r.URL, r, newVersion)
		}
	}
	if v := tf.gate.fleetVersion(); v != newVersion {
		t.Fatalf("fleet version %s after roll, want %s", v, newVersion)
	}
	var buf bytes.Buffer
	tf.gate.Obs().WriteText(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("napel_fleet_rolling_reloads_total 1")) {
		t.Fatal("rolling_reloads_total not incremented")
	}
}

// TestGateReadyzTracksReplicas: the gate is unready when every replica
// is gone and recovers when they return.
func TestGateReadyzTracksReplicas(t *testing.T) {
	tf := newTestFleet(t, 2, nil)

	code := getCode(t, tf.ts.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz with healthy fleet: HTTP %d", code)
	}

	for _, rep := range tf.replicas {
		rep.ts.Close()
	}
	// Transport failures evict only at the threshold (default 3): one
	// failed probe leaves a replica suspect and still serving.
	for i := 0; i < 3; i++ {
		tf.gate.CheckReplicas(context.Background())
	}
	if code := getCode(t, tf.ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead fleet: HTTP %d, want 503", code)
	}
	resp, body := postJSON(t, tf.ts.URL+"/v1/predict",
		makeRequest(fixture(t), serve.WireArch{}, fixtureVal.threads))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict with dead fleet: HTTP %d: %s", resp.StatusCode, body)
	}
}

// TestGateSuitabilityPassthrough: the composite endpoint routes on the
// embedded predict request and forwards the body verbatim.
func TestGateSuitabilityPassthrough(t *testing.T) {
	f := fixture(t)
	tf := newTestFleet(t, 3, nil)
	req := serve.SuitabilityRequest{
		PredictRequest: makeRequest(f, serve.WireArch{}, f.threads),
		Host:           serve.WireHost{TimeSec: 0.5, EnergyJ: 30},
	}
	resp, gateBody := postJSON(t, tf.ts.URL+"/v1/suitability", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("suitability: HTTP %d: %s", resp.StatusCode, gateBody)
	}
	_, directBody := postJSON(t, tf.replicas[0].ts.URL+"/v1/suitability", req)
	var got, want serve.SuitabilityResponse
	if err := json.Unmarshal(gateBody, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(directBody, &want); err != nil {
		t.Fatal(err)
	}
	if got.NMC.EDP != want.NMC.EDP || got.Verdict != want.Verdict {
		t.Fatalf("suitability differs: gate %+v direct %+v", got, want)
	}
}

func getCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func grepMetric(metrics, prefix string) string {
	var out bytes.Buffer
	for _, line := range bytes.Split([]byte(metrics), []byte("\n")) {
		if bytes.Contains(line, []byte(prefix)) {
			out.Write(line)
			out.WriteByte('\n')
		}
	}
	return out.String()
}

// TestGateStalledBodyTimesOut: a client that sends a predict's headers,
// declaring a body, and then goes silent is cut off after httpd.ReadTimeout
// instead of holding a goroutine and its read buffer indefinitely.
func TestGateStalledBodyTimesOut(t *testing.T) {
	defer func(d time.Duration) { httpd.ReadTimeout = d }(httpd.ReadTimeout)
	httpd.ReadTimeout = 200 * time.Millisecond
	rep := newFakeReplica(t)
	g, err := New(Config{Replicas: []string{rep.url}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- g.serve(ctx, ln) }()
	defer func() {
		cancel()
		<-serveDone
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprint(conn, "POST /v1/predict HTTP/1.1\r\nHost: napel\r\n"+
		"Content-Type: application/json\r\nContent-Length: 4096\r\n\r\n")
	conn.SetReadDeadline(start.Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection still open %v after its headers: %v", time.Since(start), err)
	}
}
