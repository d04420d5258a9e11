package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"napel/internal/loadgen"
	"napel/internal/obs"
	"napel/internal/serve"
)

// workload is one traffic shape against one topology.
type workload struct {
	name         string
	gen          *loadgen.Generator
	keyspace     int     // distinct request variants gen draws from
	cacheEntries int     // napel-serve -cache-entries; 0 keeps the default
	fleet        bool    // two replicas behind napel-gate
	openRPS      float64 // > 0: open loop at this Poisson arrival rate
	promote      bool    // install models B and A in turn while serving
}

// newWorkload builds the named workload's generator. Every workload but
// sweep sends hot's traffic: 16 variants of the atax request.
func newWorkload(name string, seed uint64, base *serve.PredictRequest) (*workload, error) {
	synth := loadgen.SynthConfig{Seed: seed, Keyspace: 16, BatchSize: 16, Base: base}
	w := &workload{name: name}
	switch name {
	case "hot":
	case "sweep":
		synth.Keyspace, synth.Base = 256, nil
		w.cacheEntries = 16
	case "promote":
		w.openRPS, w.promote = 200, true
	case "fleet":
		w.fleet = true
	default:
		return nil, fmt.Errorf("unknown workload %q (want hot, sweep, promote or fleet)", name)
	}
	var err error
	w.gen, err = loadgen.NewGenerator(synth, loadgen.DefaultMix())
	w.keyspace = synth.Keyspace
	return w, err
}

// setupsPerRound is how many times a round starts its topology. A
// start-up takes about a tenth of a second and the host's speed swings
// by a third within seconds, so a round's setup_s is the median of
// several, which a single slow start-up cannot move.
const setupsPerRound = 5

// warmup is the untimed load before each window: long enough for the
// cache to fill and the servers' heaps to reach their steady size.
const warmup = 2 * time.Second

// check is one pass/fail condition of a run. A failed check fails the
// run unless it is advisory, when it only warns.
type check struct {
	Name     string `json:"name"`
	Pass     bool   `json:"pass"`
	Advisory bool   `json:"advisory,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// roundOut is what one round of one workload measured. samples holds
// the round's share of the metrics computed over the samples of all
// rounds together (see pooled).
type roundOut struct {
	metrics map[string]float64
	samples map[string][]float64
	window  *tally
	checks  []check
}

// runner holds what every round shares.
type runner struct {
	ctx     context.Context
	bin     string
	work    string
	prep    *prepared
	probers map[string]*loadgen.ModelProber
	window  time.Duration
}

// round spawns fresh processes for w, warms them up, measures one window
// and stops them again.
func (r *runner) round(w *workload, n int) (*roundOut, error) {
	dir := filepath.Join(r.work, "rounds", fmt.Sprintf("%s-%d", w.name, n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	model := filepath.Join(dir, "model.json")
	if err := os.WriteFile(model, r.prep.modelA, 0o644); err != nil {
		return nil, err
	}
	// Promotions rename prepared copies over the served file, so the
	// window itself does no file writes. A round starts on model A and
	// its promotions install B, A, B, ...
	var promoteAt []time.Duration
	if w.promote {
		promoteAt = promotionsIn(n, r.window)
		for i := range promoteAt {
			data := r.prep.modelB
			if i%2 == 1 {
				data = r.prep.modelA
			}
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("next-%d.json", i)), data, 0o644); err != nil {
				return nil, err
			}
		}
	}
	out := &roundOut{metrics: map[string]float64{"host.spin_ms": spinMs()}}

	// Set-up is short and noisy, so each round times setupsPerRound
	// start-ups and keeps the last topology for the load.
	var topo *topology
	var setups, ready, admit []float64
	for k := 0; k < setupsPerRound; k++ {
		t, setup, err := startTopology(r.ctx, w, r.bin, dir, model)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		for _, p := range t.serves {
			ready = append(ready, ms(p.ready))
		}
		if t.gate != nil {
			admit = append(admit, ms(t.gate.ready))
		}
		if k < setupsPerRound-1 {
			t.stop()
		}
		topo = t
	}
	defer topo.stop()
	out.metrics["setup_s"] = median(setups)
	out.metrics["serve.ready_ms"] = median(ready)
	out.samples = map[string][]float64{"setup_s": setups, "serve.ready_ms": ready}
	if w.fleet {
		out.metrics["fleet.admit_ms"] = median(admit)
		out.samples["fleet.admit_ms"] = admit
	}

	c := newClient(w.gen, topo.front.url, r.probers)
	defer c.close()
	var next atomic.Uint64
	r.load(w, c, warmup, &next)

	before, err := scrape(topo)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuTimes(topo)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var promos []promotion
	var wg sync.WaitGroup
	if len(promoteAt) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			promos = r.promote(topo.front, dir, model, t0, promoteAt)
		}()
	}
	var pids []int
	for _, p := range topo.all() {
		pids = append(pids, p.pid)
	}
	stopRSS := make(chan struct{})
	var rss [][]float64
	var rssErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		rss, rssErr = sampleRSS(pids, stopRSS)
	}()
	tot := merge(r.load(w, c, r.window, &next))
	close(stopRSS)
	wg.Wait()
	if rssErr != nil {
		return nil, rssErr
	}
	cpu1, err := cpuTimes(topo)
	if err != nil {
		return nil, err
	}
	after, err := scrape(topo)
	if err != nil {
		return nil, err
	}
	elapsed := tot.last.Sub(t0)
	if elapsed < r.window {
		elapsed = r.window
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	out.window = tot
	out.samples["predict"] = tot.lat[loadgen.KindPredict]
	out.samples["batch"] = tot.lat[loadgen.KindBatch]
	out.samples["lag"] = tot.lag
	if err := liveMetrics(out, w, topo, tot, elapsed, before, after, cpu0, cpu1, rss); err != nil {
		return nil, err
	}
	if w.promote {
		out.checks = append(out.checks, promotionCheck(promos, len(promoteAt)))
	}
	if len(promos) > 0 {
		var reload []float64
		for _, p := range promos {
			reload = append(reload, p.ms)
		}
		out.metrics["serve.reload_ms"] = median(reload)
	}
	return out, nil
}

// load runs w's traffic for d, continuing the op schedule at next.
func (r *runner) load(w *workload, c *client, d time.Duration, next *atomic.Uint64) []*tally {
	if w.openRPS <= 0 {
		return runClosed(r.ctx, d, next, c.send)
	}
	gap := func(i uint64) time.Duration { return w.gen.Interarrival(i, w.openRPS) }
	ts, n := runOpen(r.ctx, time.Now(), next.Load(), d, conns, gap, c.send)
	next.Store(n)
	return ts
}

// procSample is the CPU seconds of every serving process (in
// topology.all() order) and of the benchmark itself.
type procSample struct {
	procs []float64
	self  float64
}

func cpuTimes(t *topology) (procSample, error) {
	var s procSample
	for _, p := range t.all() {
		v, err := procCPU(p.pid)
		if err != nil {
			return s, err
		}
		s.procs = append(s.procs, v)
	}
	var err error
	s.self, err = procCPU(os.Getpid())
	return s, err
}

// scrape reads /metrics from every process of t, serves first, in
// topology.all() order.
func scrape(t *topology) ([]obs.Snapshot, error) {
	var out []obs.Snapshot
	for _, p := range t.all() {
		resp, err := ctlClient.Get(p.url + "/metrics")
		if err != nil {
			return nil, err
		}
		snap, err := obs.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s /metrics: %w", p.name, err)
		}
		out = append(out, snap)
	}
	return out, nil
}

// family sums the series of one metric family whose label block
// contains match ("" matches all).
func family(s obs.Snapshot, name, match string) float64 {
	var sum float64
	for key, v := range s {
		if (key == name && match == "") || (strings.HasPrefix(key, name+"{") && strings.Contains(key, match)) {
			sum += v
		}
	}
	return sum
}

// delta is the change of family(name, match) between two scrapes of
// one process.
func delta(before, after obs.Snapshot, name, match string) float64 {
	return family(after, name, match) - family(before, name, match)
}

// liveMetrics derives the round's end-to-end and [L] per-layer metrics
// and its checks from the client tally, /proc and /metrics deltas. rss
// holds the VmRSS samples of the window, one row per process in
// topology.all() order.
func liveMetrics(out *roundOut, w *workload, t *topology, tot *tally, elapsed time.Duration,
	before, after []obs.Snapshot, cpu0, cpu1 procSample, rss [][]float64) error {
	m := out.metrics
	secs := elapsed.Seconds()
	preds := float64(tot.predictions)
	if preds == 0 {
		return fmt.Errorf("%s: no successful prediction in the window (first error: %s)", w.name, tot.firstErr)
	}
	m["predictions_per_s"] = preds / secs
	m["predict_p50_ms"] = quantile(tot.lat[loadgen.KindPredict], 0.50)
	m["predict_p99_ms"] = quantile(tot.lat[loadgen.KindPredict], 0.99)
	m["batch_p50_ms"] = quantile(tot.lat[loadgen.KindBatch], 0.50)
	m["batch_p99_ms"] = quantile(tot.lat[loadgen.KindBatch], 0.99)
	m["error_share"] = float64(tot.failed) / float64(tot.attempted)

	// rss_mb is the window's average resident size, not its peak: a
	// peak is set by the one collection that ran latest, which an
	// average over a hundred samples all but leaves out (see README,
	// Repeatability).
	var servingCPU, peak, avg float64
	for i, p := range t.all() {
		servingCPU += cpu1.procs[i] - cpu0.procs[i]
		hwm, err := procMB(p.pid, "VmHWM")
		if err != nil {
			return err
		}
		peak += hwm
		avg += mean(rss[i])
		if p == t.gate {
			m["fleet.rss_mb"] = mean(rss[i])
		}
	}
	m["cpu_ms_per_prediction"] = servingCPU * 1e3 / preds
	m["rss_mb"] = avg
	m["rss_peak_mb"] = peak

	m["loadgen.request_kb"] = float64(tot.bytesSent) / 1024 / preds
	m["loadgen.cpu_ms_per_request"] = (cpu1.self - cpu0.self) * 1e3 / float64(tot.attempted)
	if w.openRPS > 0 {
		m["loadgen.lag_p99_ms"] = quantile(tot.lag, 0.99)
	}

	// Serve-side numbers summed over the replicas.
	var reqs, predictReqs, predictSecs, rejected, hits, misses, evictions float64
	var allocs, mallocs, gcs, pause float64
	stage := map[string][2]float64{}
	var perReplica []float64
	for i := range t.serves {
		b, a := before[i], after[i]
		d := func(name, match string) float64 { return delta(b, a, name, match) }
		r := d("napel_serve_requests_total", `endpoint="predict"`) + d("napel_serve_requests_total", `endpoint="suitability"`)
		perReplica = append(perReplica, r)
		reqs += r
		predictReqs += d("napel_serve_request_duration_seconds_count", `endpoint="predict"`)
		predictSecs += d("napel_serve_request_duration_seconds_sum", `endpoint="predict"`)
		rejected += d("napel_serve_rejected_total", "")
		hits += d("napel_serve_cache_hits_total", "")
		misses += d("napel_serve_cache_misses_total", "")
		evictions += d("napel_serve_cache_evictions_total", "")
		allocs += d("napel_process_alloc_bytes_total", "")
		mallocs += d("napel_process_mallocs_total", "")
		gcs += d("napel_process_gc_cycles_total", "")
		pause += d("napel_process_gc_pause_seconds_total", "")
		for _, s := range []string{"assemble", "cache", "predict"} {
			match := `stage="` + s + `"`
			st := stage[s]
			st[0] += d("napel_serve_predict_stage_seconds_sum", match)
			st[1] += d("napel_serve_predict_stage_seconds_count", match)
			stage[s] = st
		}
	}
	if reqs == 0 || predictReqs == 0 {
		return fmt.Errorf("%s: the replicas counted no request in the window", w.name)
	}
	var serveCPU float64
	for i := range t.serves {
		serveCPU += cpu1.procs[i] - cpu0.procs[i]
	}
	m["serve.cpu_ms_per_request"] = serveCPU * 1e3 / reqs
	m["serve.request_ms"] = predictSecs * 1e3 / predictReqs
	for s, st := range stage {
		m["serve.stage_"+s+"_us"] = ratio(st[0]*1e6, st[1])
	}
	m["serve.alloc_kb_per_request"] = allocs / 1024 / reqs
	m["serve.mallocs_per_request"] = mallocs / reqs
	m["serve.gc_per_1k_requests"] = gcs * 1e3 / reqs
	m["serve.gc_pause_ms_per_s"] = pause * 1e3 / secs
	m["serve.rejected_share"] = rejected / (reqs + rejected)
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.evictions_per_request"] = evictions / reqs

	if t.gate != nil {
		g := len(t.serves)
		b, a := before[g], after[g]
		d := func(name, match string) float64 { return delta(b, a, name, match) }
		gateReqs := d("napel_fleet_gate_requests_total", `endpoint="predict"`) + d("napel_fleet_gate_requests_total", `endpoint="suitability"`)
		if gateReqs == 0 {
			return fmt.Errorf("fleet: the gate counted no request in the window")
		}
		m["fleet.cpu_ms_per_request"] = (cpu1.procs[g] - cpu0.procs[g]) * 1e3 / gateReqs
		m["fleet.request_ms"] = ratio(d("napel_fleet_gate_request_duration_seconds_sum", `endpoint="predict"`)*1e3,
			d("napel_fleet_gate_request_duration_seconds_count", `endpoint="predict"`))
		m["fleet.fanout_mean"] = ratio(d("napel_fleet_fanout_width_sum", ""), d("napel_fleet_fanout_width_count", ""))
		m["fleet.upstream_per_request"] = d("napel_fleet_requests_total", "") / gateReqs
	}

	out.checks = append(out.checks,
		check{Name: w.name + ".no_failed_requests", Pass: tot.failed == 0,
			Detail: fmt.Sprintf("%d of %d requests failed; first: %s", tot.failed, tot.attempted, tot.firstErr)},
		check{Name: w.name + ".probe_bit_exact", Pass: tot.mismatches == 0 && tot.probed > 0,
			Detail: fmt.Sprintf("%d of %d probed predictions mismatched; first: %s", tot.mismatches, tot.probed, tot.firstBad)})
	hr := m["cache.hit_ratio"]
	switch {
	case w.name == "sweep":
		out.checks = append(out.checks, check{Name: "sweep.cache_hit_ratio_at_most_0.10", Pass: hr <= 0.10, Detail: fmt.Sprintf("hit ratio %.4f", hr)})
	case !w.promote:
		out.checks = append(out.checks, check{Name: w.name + ".cache_hit_ratio_at_least_0.99", Pass: hr >= 0.99, Detail: fmt.Sprintf("hit ratio %.4f", hr)})
	}
	if w.fleet {
		pass := true
		for _, r := range perReplica {
			pass = pass && r > 0
		}
		out.checks = append(out.checks, check{Name: "fleet.both_replicas_serve", Pass: pass, Detail: fmt.Sprintf("requests per replica %v", perReplica)})
	}
	return nil
}

// promotion is one model install during a promote window.
type promotion struct {
	status  int
	ms      float64
	version string
	want    string
	err     error
}

// promotionEvery is the promote workload's install rate: one every 5 s
// of measured time, at 2.5 s, 7.5 s, ... counted across the workload's
// windows. In 10 s windows that is 2.5 s and 7.5 s into each; in shorter
// windows the share of the measured time spent installing models stays
// the same.
const promotionEvery = 5 * time.Second

// promotionsIn returns the offsets into round n's window at which its
// promotions fall.
func promotionsIn(n int, window time.Duration) []time.Duration {
	var out []time.Duration
	start, end := time.Duration(n)*window, time.Duration(n+1)*window
	for c := promotionEvery / 2; c < end; c += promotionEvery {
		if c >= start {
			out = append(out, c-start)
		}
	}
	return out
}

// promote installs the prepared models at the given offsets from t0: an
// atomic rename over the served file, then POST /v1/models/reload, timed
// by the client.
func (r *runner) promote(front *proc, dir, model string, t0 time.Time, offsets []time.Duration) []promotion {
	var out []promotion
	for i, off := range offsets {
		want := r.prep.versionB
		if i%2 == 1 {
			want = r.prep.versionA
		}
		select {
		case <-r.ctx.Done():
			return out
		case <-time.After(time.Until(t0.Add(off))):
		}
		p := promotion{want: want}
		if p.err = os.Rename(filepath.Join(dir, fmt.Sprintf("next-%d.json", i)), model); p.err != nil {
			out = append(out, p)
			continue
		}
		start := time.Now()
		resp, err := ctlClient.Post(front.url+"/v1/models/reload", "application/json", nil)
		if err != nil {
			p.err = err
			out = append(out, p)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		p.ms, p.status, p.err = ms(time.Since(start)), resp.StatusCode, err
		var rr struct {
			Models []struct {
				Version string `json:"version"`
			} `json:"models"`
		}
		if json.Unmarshal(body, &rr) == nil && len(rr.Models) == 1 {
			p.version = rr.Models[0].Version
		}
		out = append(out, p)
	}
	return out
}

func promotionCheck(ps []promotion, want int) check {
	c := check{Name: "promote.promotions_answered_200", Pass: len(ps) == want}
	c.Detail = fmt.Sprintf("%d of %d promotions done", len(ps), want)
	for _, p := range ps {
		if p.err != nil || p.status != http.StatusOK || p.version != p.want {
			c.Pass = false
			c.Detail = fmt.Sprintf("promotion to %s: status %d, installed %q, error %v", p.want, p.status, p.version, p.err)
		}
	}
	return c
}

// spinMs times a fixed CPU loop, so a disagreement between two sets of
// runs can be traced to host speed.
func spinMs() float64 {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 1<<24; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	spinSink = x
	return ms(time.Since(start))
}

var spinSink uint64

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
