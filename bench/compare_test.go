package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([...], n=4) gives (2.75, 8.25) for 1..10 and
	// (1, 3) for [1, 2, 3]; spread divides by the median.
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, (8.25 - 2.75) / 5.5},
		{[]float64{3, 1, 2}, (3 - 1) / 2.0},
		{[]float64{4}, 0},
	}
	for _, c := range cases {
		if got := spread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "p99", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.1}
	steady := func(v float64) metricOut { return metricOut{Value: v, Rounds: []float64{v * 0.99, v, v * 1.01}} }
	cases := []struct {
		name string
		m    metricSpec
		a, b metricOut
		want string
	}{
		{"within bound", lower, steady(100), steady(108), unchanged},
		{"slower", lower, steady(100), steady(115), regressed},
		{"faster", lower, steady(100), steady(85), improved},
		{"higher is better", higher, steady(100), steady(85), regressed},
		{"throughput gain", higher, steady(100), steady(120), improved},
		{"noisy baseline", lower, metricOut{Value: 100, Rounds: []float64{90, 100, 115}}, steady(100), unresolved},
		{"noisy candidate", lower, steady(100), metricOut{Value: 130, Rounds: []float64{100, 130, 150}}, unresolved},
	}
	for _, c := range cases {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func fixtureReport(nproc int, digest string, rate float64) *report {
	return &report{
		Header: header{NProc: nproc},
		Workloads: []*workloadOut{{
			Name: "hot", ScheduleDigest: digest, BodyDigest: "b0",
			Metrics: map[string]metricOut{
				"predictions_per_s": {Value: rate, Rounds: []float64{rate, rate, rate}},
				"setup_s":           {Value: 0.2, Rounds: []float64{0.19, 0.2, 0.21}},
			},
		}},
	}
}

func TestCompareReports(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "predictions_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	var out bytes.Buffer
	if n := compareReports(&out, spec, fixtureReport(2, "s0", 1000), fixtureReport(2, "s0", 800)); n != 1 {
		t.Errorf("%d regressions, want 1:\n%s", n, out.String())
	}
	for _, want := range []string{"hot      setup_s", "unchanged", "predictions_per_s", "regressed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}

	if err := comparable(fixtureReport(2, "s0", 1), fixtureReport(4, "s0", 1)); err == nil {
		t.Error("reports from different nproc compared")
	}
	if err := comparable(fixtureReport(2, "s0", 1), fixtureReport(2, "s1", 1)); err == nil {
		t.Error("reports with different schedules compared")
	}
	if err := comparable(fixtureReport(2, "s0", 1), fixtureReport(2, "s0", 2)); err != nil {
		t.Errorf("same inputs refused: %v", err)
	}
}
