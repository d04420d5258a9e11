// Package loadgen is napel-loadgen's engine: a replayable closed-loop
// load generator for a live napel-serve (or a napel-gate in front of
// replicas) that doubles as a correctness prober. The serving benchmark
// under bench/ runs its own open loop and reuses only the generator
// (Generator, SynthConfig, Op and the digests) and ModelProber.
//
// The generator drives mixed traffic — single POST /v1/predict, batched
// predict arrays, and POST /v1/suitability — from N workers issuing
// requests back to back (optionally separated by think time), honoring
// Retry-After on 429/503 so a backpressuring server is paced, not
// hammered.
//
// Request bodies are synthesized from an explicit xrand seed: the same
// seed produces a byte-identical request schedule (op sequence and
// bodies), attested by digests in the report. Latency is sketched with
// log-bucketed stats.LogHist histograms (p50/p90/p99/p99.9 within 2%
// relative error), backpressure and degraded answers are tallied apart
// from successes and hard errors, the server's /metrics is scraped
// before and after to attribute allocs/GC/cache behavior, and the
// result is gated on its error rate, probe mismatches and, for chaos
// runs, on degraded answers having been served.
package loadgen

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind is one traffic class in the mix.
type Kind int

const (
	KindPredict Kind = iota // single-object POST /v1/predict
	KindBatch               // JSON-array POST /v1/predict
	KindSuitability
	numKinds
)

// String returns the report/flag name of the kind.
func (k Kind) String() string {
	switch k {
	case KindPredict:
		return "predict"
	case KindBatch:
		return "batch"
	case KindSuitability:
		return "suitability"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Path is the endpoint the kind posts to.
func (k Kind) Path() string {
	if k == KindSuitability {
		return "/v1/suitability"
	}
	return "/v1/predict"
}

// Mix weighs the traffic classes. Weights are relative, not
// percentages; a zero weight removes the class entirely.
type Mix struct {
	Predict     int
	Batch       int
	Suitability int
}

// DefaultMix is the standard serving blend: mostly single predictions,
// with batched and suitability traffic keeping the other handlers hot.
func DefaultMix() Mix { return Mix{Predict: 60, Batch: 20, Suitability: 20} }

// ParseMix reads "predict=60,batch=20,suitability=20". Omitted classes
// get weight 0; an empty string is the default mix.
func ParseMix(s string) (Mix, error) {
	if strings.TrimSpace(s) == "" {
		return DefaultMix(), nil
	}
	var m Mix
	for _, part := range strings.Split(s, ",") {
		name, w, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("loadgen: mix term %q wants name=weight", part)
		}
		n, err := strconv.Atoi(w)
		if err != nil || n < 0 {
			return m, fmt.Errorf("loadgen: mix weight %q must be a non-negative integer", w)
		}
		switch name {
		case "predict":
			m.Predict = n
		case "batch":
			m.Batch = n
		case "suitability":
			m.Suitability = n
		default:
			return m, fmt.Errorf("loadgen: unknown mix class %q (want predict, batch or suitability)", name)
		}
	}
	if m.Predict+m.Batch+m.Suitability == 0 {
		return m, fmt.Errorf("loadgen: mix has no positive weight")
	}
	return m, nil
}

// String renders the mix in ParseMix's grammar, deterministically.
func (m Mix) String() string {
	parts := make([]string, 0, 3)
	for _, c := range []struct {
		name string
		w    int
	}{{"predict", m.Predict}, {"batch", m.Batch}, {"suitability", m.Suitability}} {
		if c.w > 0 {
			parts = append(parts, c.name+"="+strconv.Itoa(c.w))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// weights returns the cumulative kind-selection thresholds in [0, 1].
func (m Mix) weights() ([numKinds]float64, error) {
	total := m.Predict + m.Batch + m.Suitability
	var cum [numKinds]float64
	if total <= 0 {
		return cum, fmt.Errorf("loadgen: mix has no positive weight")
	}
	cum[KindPredict] = float64(m.Predict) / float64(total)
	cum[KindBatch] = cum[KindPredict] + float64(m.Batch)/float64(total)
	cum[KindSuitability] = 1
	return cum, nil
}

// Op is one scheduled request: a traffic class and the pregenerated
// body variant it sends.
type Op struct {
	Kind    Kind
	Variant int
}

// sleepFor blocks for d or until done closes; it reports whether the
// full wait elapsed.
func sleepFor(done <-chan struct{}, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}
