package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"napel/internal/loadgen"
)

// The lag check reads the p99 of every round's samples together, and a
// failed lag check only warns.
func TestLagCheckIsPooledAndAdvisory(t *testing.T) {
	gen, err := loadgen.NewGenerator(loadgen.SynthConfig{Seed: 1, Keyspace: 16, BatchSize: 16}, loadgen.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	w := &workload{name: "promote", gen: gen, openRPS: 200}
	lags := func(late int, lateMs float64) []float64 {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = 1
			if i < late {
				xs[i] = lateMs
			}
		}
		return xs
	}
	round := func(lag []float64) *roundOut {
		return &roundOut{
			metrics: map[string]float64{"loadgen.lag_p99_ms": quantile(append([]float64(nil), lag...), 0.99)},
			samples: map[string][]float64{"lag": lag},
			window:  &tally{},
		}
	}
	cases := []struct {
		name string
		late int // ops 9 ms late in the second round
		lag  float64
		pass bool
	}{
		// Two late ops make the second round's own p99 9 ms, but not the run's.
		{"pooled", 2, 1.08, true},
		{"late", 5, 9, false},
	}
	for _, c := range cases {
		wr := summarize(w, &benchSpec{}, []*roundOut{round(lags(0, 0)), round(lags(c.late, 9))})
		if got := wr.Metrics["loadgen.lag_p99_ms"].Value; math.Abs(got-c.lag) > 1e-9 {
			t.Errorf("%s: lag p99 %v, want %v", c.name, got, c.lag)
		}
		if len(wr.checks) != 1 {
			t.Fatalf("%s: checks %+v, want the lag check alone", c.name, wr.checks)
		}
		if ck := wr.checks[0]; ck.Pass != c.pass || !ck.Advisory {
			t.Errorf("%s: check %+v, want pass %v and advisory", c.name, ck, c.pass)
		}
	}
}

func TestPromotionsKeepTheirRate(t *testing.T) {
	s := time.Second
	cases := []struct {
		window time.Duration
		rounds int
		want   [][]time.Duration
	}{
		// 10 s windows: 2.5 s and 7.5 s into each.
		{10 * s, 3, [][]time.Duration{{2500 * time.Millisecond, 7500 * time.Millisecond}, {2500 * time.Millisecond, 7500 * time.Millisecond}, {2500 * time.Millisecond, 7500 * time.Millisecond}}},
		// -seconds 15 gives 7.5 s windows: at 2.5 s, 7.5 s and 12.5 s of measured time.
		{7500 * time.Millisecond, 2, [][]time.Duration{{2500 * time.Millisecond}, {0, 5 * s}}},
		// 4 s windows: at 2.5 s and 7.5 s of measured time.
		{4 * s, 3, [][]time.Duration{{2500 * time.Millisecond}, {3500 * time.Millisecond}, nil}},
	}
	for _, c := range cases {
		for n := 0; n < c.rounds; n++ {
			if got := promotionsIn(n, c.window); !reflect.DeepEqual(got, c.want[n]) {
				t.Errorf("window %v round %d: promotions at %v, want %v", c.window, n, got, c.want[n])
			}
		}
	}
}
