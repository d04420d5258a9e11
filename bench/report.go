package main

import (
	"encoding/json"
	"fmt"
)

// units names every metric the benchmark computes. End-to-end metrics
// come first, then [L] live per-layer metrics, then [R] replay metrics.
var units = map[string]string{
	"setup_s":               "s",
	"predictions_per_s":     "1/s",
	"predict_p50_ms":        "ms",
	"predict_p99_ms":        "ms",
	"batch_p50_ms":          "ms",
	"batch_p99_ms":          "ms",
	"cpu_ms_per_prediction": "ms",
	"rss_mb":                "MB",
	"rss_peak_mb":           "MB",
	"error_share":           "ratio",
	"host.spin_ms":          "ms",

	"loadgen.request_kb":          "kB",
	"loadgen.cpu_ms_per_request":  "ms",
	"loadgen.lag_p99_ms":          "ms",
	"serve.cpu_ms_per_request":    "ms",
	"serve.request_ms":            "ms",
	"serve.stage_assemble_us":     "us",
	"serve.stage_cache_us":        "us",
	"serve.stage_predict_us":      "us",
	"serve.alloc_kb_per_request":  "kB",
	"serve.mallocs_per_request":   "count",
	"serve.gc_per_1k_requests":    "count",
	"serve.gc_pause_ms_per_s":     "ms/s",
	"serve.rejected_share":        "ratio",
	"serve.ready_ms":              "ms",
	"serve.reload_ms":             "ms",
	"cache.hit_ratio":             "ratio",
	"cache.evictions_per_request": "count",
	"fleet.cpu_ms_per_request":    "ms",
	"fleet.request_ms":            "ms",
	"fleet.fanout_mean":           "count",
	"fleet.upstream_per_request":  "count",
	"fleet.rss_mb":                "MB",
	"fleet.admit_ms":              "ms",

	"serve.decode_us":             "us",
	"serve.decode_allocs":         "count",
	"serve.assemble_us":           "us",
	"serve.assemble_allocs":       "count",
	"serve.encode_us":             "us",
	"serve.encode_allocs":         "count",
	"serve.registry_load_ms":      "ms",
	"serve.replay_us_per_request": "us",
	"cache.get_us":                "us",
	"cache.put_us":                "us",
	"napel.predict_us":            "us",
	"napel.predict_allocs":        "count",
	"fleet.split_us":              "us",
	"fleet.split_allocs":          "count",
	"fleet.route_us":              "us",
	"fleet.route_allocs":          "count",
	"fleet.merge_us":              "us",
	"fleet.merge_allocs":          "count",
	"obs.trace_overhead_share":    "ratio",
}

// metricOut is one metric of one workload: the median over rounds (or
// the single replay value) and, for live metrics, every round's value.
type metricOut struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
}

type workloadOut struct {
	Name           string               `json:"name"`
	Why            string               `json:"why"`
	ScheduleDigest string               `json:"schedule_digest"`
	BodyDigest     string               `json:"body_digest"`
	Attempted      int                  `json:"attempted"`
	Failed         int                  `json:"failed"`
	Probed         int                  `json:"probed"`
	Mismatches     int                  `json:"mismatches"`
	Metrics        map[string]metricOut `json:"metrics"`
	checks         []check
}

// header identifies the run: what was measured, on what, with which
// inputs. -compare refuses reports whose nproc or digests differ.
type header struct {
	GitRev     string    `json:"git_rev"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Seed       uint64    `json:"seed"`
	Rounds     int       `json:"rounds"`
	WarmupS    float64   `json:"warmup_s"`
	WindowS    float64   `json:"window_s"`
	ReplayOps  int       `json:"replay_ops"`
	PrepKey    string    `json:"prep_key"`
	PrepS      float64   `json:"prep_s"` // includes training only when the cache entry was new
	ModelA     string    `json:"model_a_version"`
	ModelB     string    `json:"model_b_version"`
	HostSpinMs []float64 `json:"host_spin_ms"`
}

type report struct {
	Schema    string         `json:"schema"`
	Header    header         `json:"header"`
	Workloads []*workloadOut `json:"workloads"`
	Checks    []check        `json:"checks"`
	Correct   bool           `json:"correct"`
}

// pooled lists the metrics made of many samples per round: latency
// quantiles and start-up times. Their value is computed over the samples
// of all rounds together, so a p99 or a median start-up rests on all of
// them rather than on a few per round; each round's own value is kept.
var pooled = map[string]struct {
	samples string
	q       float64
}{
	"predict_p50_ms":     {"predict", 0.50},
	"predict_p99_ms":     {"predict", 0.99},
	"batch_p50_ms":       {"batch", 0.50},
	"batch_p99_ms":       {"batch", 0.99},
	"loadgen.lag_p99_ms": {"lag", 0.99},
	"setup_s":            {"setup_s", 0.50},
	"serve.ready_ms":     {"serve.ready_ms", 0.50},
	"fleet.admit_ms":     {"fleet.admit_ms", 0.50},
}

// maxLagP99Ms is how late the open-loop generator may hand 99% of the
// run's ops to a connection before the run warns. The check is advisory:
// a late op is still sent and its latency still counts from the due
// time, so lag never hides a stall, and on a shared 2-vCPU host a
// process that does nothing but sleep sometimes wakes more than 5 ms
// late at p99 (see README, Checks).
const maxLagP99Ms = 5

// summarize folds a workload's rounds into medians (or pooled values)
// and its checks into one verdict each: a check passes only if it passed
// in every round. The open loop's lag check reads the pooled p99 of the
// whole run, like the reported metric.
func summarize(w *workload, spec *benchSpec, rounds []*roundOut) *workloadOut {
	wr := &workloadOut{
		Name:           w.name,
		Why:            spec.why(w.name),
		ScheduleDigest: w.gen.ScheduleDigest(replayOps),
		BodyDigest:     w.gen.BodyDigest(),
		Metrics:        map[string]metricOut{},
	}
	vals, samples := map[string][]float64{}, map[string][]float64{}
	var checks []check
	index := map[string]int{}
	for _, ro := range rounds {
		wr.Attempted += ro.window.attempted
		wr.Failed += ro.window.failed
		wr.Probed += ro.window.probed
		wr.Mismatches += ro.window.mismatches
		for name, v := range ro.metrics {
			vals[name] = append(vals[name], v)
		}
		for name, xs := range ro.samples {
			samples[name] = append(samples[name], xs...)
		}
		for _, c := range ro.checks {
			i, seen := index[c.Name]
			switch {
			case !seen:
				index[c.Name] = len(checks)
				checks = append(checks, c)
			case checks[i].Pass && !c.Pass:
				checks[i] = c
			}
		}
	}
	for name, vs := range vals {
		wr.Metrics[name] = metricOut{Value: median(vs), Unit: units[name], Rounds: vs}
	}
	for name, p := range pooled {
		if xs := samples[p.samples]; len(xs) > 0 {
			m := wr.Metrics[name]
			m.Value = quantile(xs, p.q)
			wr.Metrics[name] = m
		}
	}
	if w.openRPS > 0 {
		lag := wr.Metrics["loadgen.lag_p99_ms"].Value
		checks = append(checks, check{Name: w.name + ".lag_p99_at_most_5ms", Pass: lag <= maxLagP99Ms, Advisory: true,
			Detail: fmt.Sprintf("generator lag p99 %.3f ms over all rounds", lag)})
	}
	wr.checks = checks
	return wr
}

// summaryLine renders the closing one-line JSON result. With one workload
// the metrics are BENCHMARK.json's end-to-end list (or its per-layer
// list with trace); with all workloads every listed metric of every
// workload, keyed workload/metric.
func summaryLine(rep *report, spec *benchSpec, single, trace bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.Correct, Metrics: map[string]value{}}
	lists := [][]metricSpec{spec.EndToEnd, spec.PerLayer}
	if single {
		lists = lists[:1]
		if trace {
			lists = [][]metricSpec{spec.PerLayer}
		}
	}
	for _, wr := range rep.Workloads {
		res.Attempted += wr.Attempted
		res.Failed += wr.Failed
		for _, list := range lists {
			for _, ms := range list {
				m, ok := wr.Metrics[ms.Name]
				if !ok {
					return nil, fmt.Errorf("BENCHMARK.json lists %s, which %s did not measure", ms.Name, wr.Name)
				}
				if m.Unit != ms.Unit {
					return nil, fmt.Errorf("BENCHMARK.json gives %s unit %q, the benchmark measures %q", ms.Name, ms.Unit, m.Unit)
				}
				key := ms.Name
				if !single {
					key = wr.Name + "/" + ms.Name
				}
				res.Metrics[key] = value{m.Value, m.Unit}
			}
		}
	}
	return json.Marshal(res)
}
