package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	cases := []struct {
		in   string
		want Mix
		ok   bool
	}{
		{"", DefaultMix(), true},
		{"predict=60,batch=20,suitability=20", Mix{60, 20, 20}, true},
		{"predict=1", Mix{Predict: 1}, true},
		{" batch=3 , suitability=7 ", Mix{Batch: 3, Suitability: 7}, true},
		{"predict=0,batch=0,suitability=0", Mix{}, false},
		{"predict=-1", Mix{}, false},
		{"bogus=1", Mix{}, false},
		{"predict", Mix{}, false},
	}
	for _, c := range cases {
		got, err := ParseMix(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParseMix(%q) error = %v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Fatalf("ParseMix(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	// String renders in ParseMix's own grammar.
	m, err := ParseMix(DefaultMix().String())
	if err != nil || m != DefaultMix() {
		t.Fatalf("round trip: %+v, %v", m, err)
	}
}

// TestSeedReplay is the replayability contract: the same seed yields a
// byte-identical schedule and bodies, and a different seed does not.
func TestSeedReplay(t *testing.T) {
	cfg := SynthConfig{Seed: 42, Keyspace: 8, BatchSize: 4}
	a, err := NewGenerator(cfg, DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(cfg, DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		if a.Op(i) != b.Op(i) {
			t.Fatalf("op %d diverged: %+v vs %+v", i, a.Op(i), b.Op(i))
		}
		if a.Interarrival(i, 100) != b.Interarrival(i, 100) {
			t.Fatalf("interarrival %d diverged", i)
		}
	}
	for i := uint64(0); i < 100; i++ {
		op := a.Op(i)
		if !bytes.Equal(a.Body(op), b.Body(op)) {
			t.Fatalf("body for op %d diverged", i)
		}
	}
	if a.ScheduleDigest(500) != b.ScheduleDigest(500) {
		t.Fatal("schedule digests diverged for equal seeds")
	}
	if a.BodyDigest() != b.BodyDigest() {
		t.Fatal("body digests diverged for equal seeds")
	}

	c, err := NewGenerator(SynthConfig{Seed: 43, Keyspace: 8, BatchSize: 4}, DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	if a.ScheduleDigest(500) == c.ScheduleDigest(500) {
		t.Fatal("different seeds produced the same schedule digest")
	}
	if a.BodyDigest() == c.BodyDigest() {
		t.Fatal("different seeds produced the same body digest")
	}
}

// TestMixCoverage checks the schedule actually exercises every class in
// the mix, and only those.
func TestMixCoverage(t *testing.T) {
	g, err := NewGenerator(SynthConfig{Seed: 7}, Mix{Predict: 1, Suitability: 1})
	if err != nil {
		t.Fatal(err)
	}
	var seen [numKinds]int
	for i := uint64(0); i < 2000; i++ {
		seen[g.Op(i).Kind]++
	}
	if seen[KindPredict] == 0 || seen[KindSuitability] == 0 {
		t.Fatalf("mixed classes missing from schedule: %v", seen)
	}
	if seen[KindBatch] != 0 {
		t.Fatalf("zero-weight class scheduled %d times", seen[KindBatch])
	}
}

// fakeServe answers like napel-serve's happy path: per-item responses
// for batch arrays, a suitability envelope on /v1/suitability.
func fakeServe(t *testing.T, delay time.Duration) *httptest.Server {
	t.Helper()
	h := http.NewServeMux()
	respond := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(v); err != nil {
			t.Errorf("encoding fake response: %v", err)
		}
	}
	h.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		if delay > 0 {
			time.Sleep(delay)
		}
		body, _ := io.ReadAll(r.Body)
		if bytes.HasPrefix(bytes.TrimSpace(body), []byte("[")) {
			var items []json.RawMessage
			if err := json.Unmarshal(body, &items); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			resps := make([]map[string]any, len(items))
			for i := range resps {
				resps[i] = map[string]any{"ipc": 1.0, "edp": 2.0}
			}
			respond(w, resps)
			return
		}
		respond(w, map[string]any{"ipc": 1.0, "edp": 2.0, "cached": true})
	})
	h.HandleFunc("/v1/suitability", func(w http.ResponseWriter, r *http.Request) {
		if delay > 0 {
			time.Sleep(delay)
		}
		respond(w, map[string]any{
			"nmc":     map[string]any{"ipc": 1.0, "edp": 2.0, "degraded": true},
			"verdict": "offload",
		})
	})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// TestBackpressureIsNotAnError pins the satellite contract: a draining
// or breaker-open server answering 429/503-with-Retry-After produces
// backpressure tallies and paced (honored, capped) retries — not hard
// errors, and not SLO failures under a strict error-rate gate.
func TestBackpressureIsNotAnError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
	}{
		{"429", http.StatusTooManyRequests},
		{"503-draining", http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Uint64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(tc.status)
			}))
			defer srv.Close()

			const n = 6
			start := time.Now()
			rep, err := Run(context.Background(), Config{
				Target:        srv.URL,
				Workers:       2,
				Requests:      n,
				Synth:         SynthConfig{Seed: 1, Keyspace: 4, BatchSize: 2},
				MaxRetryAfter: 30 * time.Millisecond,
				SLO:           SLOLimits{MaxErrorRate: 0},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Backpressure != n || rep.Errors != 0 || rep.OK != 0 {
				t.Fatalf("backpressure=%d errors=%d ok=%d, want %d/0/0",
					rep.Backpressure, rep.Errors, rep.OK, n)
			}
			if !rep.SLOPass {
				t.Fatalf("strict error-rate SLO failed on pure backpressure: %+v", rep.SLO)
			}
			// Each worker handled 3 ops and slept the capped Retry-After
			// after each: the run must show the pacing was honored.
			if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
				t.Fatalf("run finished in %v; Retry-After pacing not honored", elapsed)
			}
			if hits.Load() != n {
				t.Fatalf("server saw %d requests, want %d", hits.Load(), n)
			}
		})
	}
}

// TestMultiTargetRoundRobin: a Targets list spreads the schedule
// evenly and deterministically across replicas, and the report records
// the full target list.
func TestMultiTargetRoundRobin(t *testing.T) {
	var hits [2]atomic.Uint64
	mk := func(i int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"ipc":1.0,"edp":2.0}`))
		}))
	}
	a, b := mk(0), mk(1)
	defer a.Close()
	defer b.Close()

	const n = 20
	rep, err := Run(context.Background(), Config{
		Targets:  []string{a.URL, b.URL},
		Workers:  2,
		Requests: n,
		Mix:      Mix{Predict: 1},
		Synth:    SynthConfig{Seed: 3, Keyspace: 4, BatchSize: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != n {
		t.Fatalf("ok=%d, want %d", rep.OK, n)
	}
	if got := len(rep.Targets); got != 2 {
		t.Fatalf("report lists %d targets, want 2", got)
	}
	// Round-robin on the schedule index: an even split regardless of
	// which worker drew which op.
	if hits[0].Load() != n/2 || hits[1].Load() != n/2 {
		t.Fatalf("split %d/%d, want %d/%d", hits[0].Load(), hits[1].Load(), n/2, n/2)
	}
}

// TestHardErrorsAreCounted: a 503 without Retry-After is a hard error,
// and it fails a strict error-rate SLO.
func TestHardErrorsAreCounted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		Target:   srv.URL,
		Workers:  2,
		Requests: 4,
		Synth:    SynthConfig{Seed: 1, Keyspace: 4, BatchSize: 2},
		SLO:      SLOLimits{MaxErrorRate: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 4 || rep.Backpressure != 0 {
		t.Fatalf("errors=%d backpressure=%d, want 4/0", rep.Errors, rep.Backpressure)
	}
	if rep.SLOPass {
		t.Fatal("strict error-rate SLO passed despite hard errors")
	}
	if rep.ErrorRate != 1 {
		t.Fatalf("error rate %v, want 1", rep.ErrorRate)
	}
}

// zeroWallClock clears every field that legitimately varies between two
// same-seed runs, leaving only replay-deterministic content.
func zeroWallClock(rep *Report) {
	rep.DurationSeconds = 0
	rep.RequestsPerSec = 0
	rep.Overall = Quantiles{}
	rep.StartedAt = ""
	for i := range rep.Endpoints {
		rep.Endpoints[i].RequestsPerSec = 0
		rep.Endpoints[i].Latency = Quantiles{}
		rep.Endpoints[i].Histogram = nil
	}
}

// TestReportReplayDeterminism: two runs with the same seed against the
// same server produce identical reports modulo wall-clock fields.
func TestReportReplayDeterminism(t *testing.T) {
	srv := fakeServe(t, 0)
	run := func() *Report {
		rep, err := Run(context.Background(), Config{
			Target:   srv.URL,
			Workers:  4,
			Requests: 120,
			Synth:    SynthConfig{Seed: 99, Keyspace: 8, BatchSize: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.ScheduleDigest != b.ScheduleDigest || a.BodyDigest != b.BodyDigest {
		t.Fatalf("digests diverged: %s/%s vs %s/%s",
			a.ScheduleDigest, a.BodyDigest, b.ScheduleDigest, b.BodyDigest)
	}
	zeroWallClock(a)
	zeroWallClock(b)
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("reports diverged:\n%s\n%s", aj, bj)
	}
	// Sanity on content: everything succeeded, cache/degraded splits
	// populated from the fake responses.
	if a.OK != 120 || a.Errors != 0 {
		t.Fatalf("ok=%d errors=%d, want 120/0", a.OK, a.Errors)
	}
	if a.Degraded == 0 {
		t.Fatal("degraded suitability answers not split out")
	}
}

// TestInterruptWritesPartialReport: cancelling the context mid-run still
// yields a coherent report, marked interrupted, with partial counts.
func TestInterruptWritesPartialReport(t *testing.T) {
	srv := fakeServe(t, 10*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(60 * time.Millisecond)
		cancel()
	}()
	rep, err := Run(ctx, Config{
		Target:   srv.URL,
		Workers:  2,
		Requests: 100000,
		Synth:    SynthConfig{Seed: 5, Keyspace: 4, BatchSize: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted {
		t.Fatal("report not marked interrupted")
	}
	if rep.Issued == 0 || rep.Issued >= 100000 {
		t.Fatalf("issued = %d, want a partial count", rep.Issued)
	}
	// Cancelled in-flight requests must not pollute the error tally.
	if rep.Errors != 0 {
		t.Fatalf("errors = %d after clean interrupt, want 0", rep.Errors)
	}
}

// TestScrapeDeltas: metrics snapshots around the run land in the report
// as deltas.
func TestScrapeDeltas(t *testing.T) {
	var scrapes atomic.Uint64
	h := http.NewServeMux()
	h.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"ipc":1}`)
	})
	h.HandleFunc("/v1/suitability", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"nmc":{"ipc":1}}`)
	})
	h.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		n := scrapes.Add(1)
		fmt.Fprintf(w, "napel_serve_requests_total{endpoint=\"predict\"} %d\n", n*100)
		fmt.Fprintf(w, "napel_serve_cache_hits_total %d\n", n*30)
		fmt.Fprintf(w, "napel_serve_cache_misses_total %d\n", n*10)
		fmt.Fprintf(w, "napel_process_alloc_bytes_total %d\n", n*1000)
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		Target:        srv.URL,
		Workers:       1,
		Requests:      5,
		Synth:         SynthConfig{Seed: 3, Keyspace: 2, BatchSize: 2},
		ScrapeMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Server == nil {
		t.Fatalf("no server stats (scrape error %q)", rep.ScrapeError)
	}
	if rep.Server.RequestsTotal != 100 || rep.Server.AllocBytes != 1000 {
		t.Fatalf("deltas wrong: %+v", rep.Server)
	}
	if rep.Server.CacheHitRatio != 0.75 {
		t.Fatalf("cache hit ratio %v, want 0.75", rep.Server.CacheHitRatio)
	}
	if rep.Server.AllocBytesPerRequest != 10 {
		t.Fatalf("alloc/request %v, want 10", rep.Server.AllocBytesPerRequest)
	}
}

// TestSLOVerdicts exercises each gate's pass and fail side directly.
func TestSLOVerdicts(t *testing.T) {
	rep := &Report{
		ErrorRate: 0.005,
		slo:       SLOLimits{MaxErrorRate: 0.01},
	}
	rep.Evaluate()
	if !rep.SLOPass || len(rep.SLO) != 1 {
		t.Fatalf("expected 1 passing gate: %+v", rep.SLO)
	}

	rep.slo = SLOLimits{MaxErrorRate: 0.001}
	rep.Evaluate()
	if rep.SLOPass {
		t.Fatal("tightened gate still passes")
	}
	for _, v := range rep.SLO {
		if v.Pass {
			t.Fatalf("gate %s should fail: %+v", v.Name, v)
		}
	}

	// MaxErrorRate<0 disables that gate; probing adds a gate.
	rep.slo = SLOLimits{MaxErrorRate: -1}
	rep.probeActive = true
	rep.Probe.Mismatches = 1
	rep.Evaluate()
	if len(rep.SLO) != 1 || rep.SLO[0].Name != "probe_mismatches" || rep.SLOPass {
		t.Fatalf("probe gate wrong: %+v", rep.SLO)
	}
}
