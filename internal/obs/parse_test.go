package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// The parser must read back exactly what WriteText writes: every kind of
// family, labeled and bare, histogram components included.
func TestParseTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_requests_total", "").Add(7)
	r.Gauge("t_inflight", "").Set(3.5)
	cv := r.CounterVec("t_by_endpoint_total", "", "endpoint", "class")
	cv.With("predict", "2xx").Add(11)
	cv.With("predict", "5xx").Add(2)
	cv.With("with space", `qu"ote`).Add(1)
	h := r.Histogram("t_latency_seconds", "", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.CounterFunc("t_func_total", "", func() float64 { return 42 })

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, buf.String())
	}

	cases := map[string]float64{
		"t_requests_total": 7,
		"t_inflight":       3.5,
		`t_by_endpoint_total{endpoint="predict",class="2xx"}`: 11,
		`t_by_endpoint_total{endpoint="predict",class="5xx"}`: 2,
		"t_func_total":                        42,
		`t_latency_seconds_bucket{le="0.1"}`:  1,
		`t_latency_seconds_bucket{le="1"}`:    2,
		`t_latency_seconds_bucket{le="+Inf"}`: 3,
		"t_latency_seconds_count":             3,
	}
	for series, want := range cases {
		if got := snap.Value(series); got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
	if !snap.Has("t_requests_total") || snap.Has("t_missing") {
		t.Error("Has misreports series presence")
	}
	if got := snap.SumFamily("t_by_endpoint_total"); got != 14 {
		t.Errorf("SumFamily = %g, want 14 (labeled series incl. escaped labels)", got)
	}
	// _bucket series are their own family, not folded into the base name.
	if got := snap.SumFamily("t_latency_seconds"); got != 0 {
		t.Errorf("SumFamily(histogram base) = %g, want 0", got)
	}
}

func TestParseTextDeltas(t *testing.T) {
	before, err := ParseText(strings.NewReader("a_total 10\nb_total{x=\"1\"} 5\nb_total{x=\"2\"} 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := ParseText(strings.NewReader("a_total 25\nb_total{x=\"1\"} 9\nb_total{x=\"2\"} 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d := after.Delta(before, "a_total"); d != 15 {
		t.Errorf("Delta = %g, want 15", d)
	}
	if d := after.DeltaFamily(before, "b_total"); d != 6 {
		t.Errorf("DeltaFamily = %g, want 6", d)
	}
	// A series absent from the earlier scrape deltas from zero.
	if d := after.Delta(Snapshot{}, "a_total"); d != 25 {
		t.Errorf("Delta vs empty = %g, want 25", d)
	}
}

func TestParseTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"no_value_here\n", "name notanumber\n"} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) accepted garbage", bad)
		}
	}
	// Blank lines and comments alone are a valid (empty) scrape.
	snap, err := ParseText(strings.NewReader("\n# HELP x y\n# TYPE x counter\n"))
	if err != nil || len(snap) != 0 {
		t.Errorf("comment-only scrape: snap=%v err=%v", snap, err)
	}
}

// The hardened grammar: escaped label values, ±Inf samples, trailing
// timestamps, tabs, trailing label commas, and HELP/TYPE blocks in any
// order relative to the samples.
func TestParseTextHardened(t *testing.T) {
	in := strings.Join([]string{
		`weird_total{path="a\\b",msg="line\nbreak",q="qu\"ote"} 3`,
		`lat_bucket{le="+Inf"} 12`,
		`neg_gauge -Inf`,
		`stamped_total{x="1"} 5 1712345678901`,
		"tabbed_total\t7",
		`trailing_total{x="1",} 2`,
		`# HELP weird_total appears after its samples`,
		`# TYPE weird_total counter`,
	}, "\n")
	snap, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]float64{
		`weird_total{path="a\\b",msg="line\nbreak",q="qu\"ote"}`: 3,
		`lat_bucket{le="+Inf"}`:                                  12,
		`stamped_total{x="1"}`:                                   5,
		"tabbed_total":                                           7,
		`trailing_total{x="1"}`:                                  2,
	}
	for series, want := range cases {
		if got := snap.Value(series); got != want {
			t.Errorf("%s = %g, want %g\nsnapshot: %v", series, got, want, snap)
		}
	}
	if got := snap.Value("neg_gauge"); !math.IsInf(got, -1) {
		t.Errorf("neg_gauge = %g, want -Inf", got)
	}
}

func TestParseExpositionMeta(t *testing.T) {
	in := "# TYPE a_total counter\na_total 1\n# HELP a_total with \\\\ and \\n escapes\n# HELP b helponly\n"
	exp, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if exp.Types["a_total"] != "counter" {
		t.Errorf("Types = %v", exp.Types)
	}
	if want := "with \\ and \n escapes"; exp.Help["a_total"] != want {
		t.Errorf("Help[a_total] = %q, want %q", exp.Help["a_total"], want)
	}
	if len(exp.Samples) != 1 || exp.Samples[0].Key() != "a_total" {
		t.Errorf("samples = %+v", exp.Samples)
	}
}

// Exposition → parse → exposition on the real registries: rendering the
// parsed samples back to text and re-parsing must reproduce the same
// snapshot, proving keys and values survive a full round trip even with
// hostile label values.
func TestExpositionParseRenderRoundTrip(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	RegisterBuildInfo(r, "obs-test")
	cv := r.CounterVec("rt_hostile_total", "label torture", "v")
	cv.With(`back\slash`).Add(1)
	cv.With("new\nline").Add(2)
	cv.With(`qu"ote and space`).Add(3)
	h := r.Histogram("rt_latency_seconds", "", nil)
	h.Observe(0.003)
	h.Observe(9)

	var first bytes.Buffer
	if err := r.WriteText(&first); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("parse pass 1: %v\n%s", err, first.String())
	}
	second := renderSamples(exp)
	snapA, err := ParseText(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := ParseText(bytes.NewReader(second))
	if err != nil {
		t.Fatalf("parse pass 2: %v\n%s", err, second)
	}
	if len(snapA) != len(snapB) {
		t.Fatalf("round trip changed series count: %d -> %d", len(snapA), len(snapB))
	}
	for series, v := range snapA {
		if got := snapB[series]; got != v {
			t.Errorf("%s: %g -> %g across round trip", series, v, got)
		}
	}
	if !snapB.Has(`rt_hostile_total{v="qu\"ote and space"}`) {
		t.Error("hostile label key not canonical after round trip")
	}
}

func TestRegisterRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"napel_process_alloc_bytes_total",
		"napel_process_mallocs_total",
		"napel_process_gc_cycles_total",
		"napel_process_gc_pause_seconds_total",
		"napel_process_heap_alloc_bytes",
		"napel_process_goroutines",
	} {
		if !snap.Has(series) {
			t.Errorf("missing %s in exposition:\n%s", series, buf.String())
		}
	}
	if snap.Value("napel_process_alloc_bytes_total") <= 0 {
		t.Error("a running test process must have allocated something")
	}
	if snap.Value("napel_process_goroutines") < 1 {
		t.Error("goroutine gauge must be at least 1")
	}
}
