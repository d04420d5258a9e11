package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"napel/internal/loadgen"
	"napel/internal/serve"
)

// conns is the number of client connections every workload uses: one
// per vCPU of the 2-vCPU host the baselines were measured on, so the
// benchmark's own process never needs more than the servers it drives.
const conns = 2

// probeEvery is the sampling period of the correctness probe: every
// 8th successful answer of each client is checked bit for bit.
const probeEvery = 8

// tally is one client's record of a load phase. Latencies are kept raw
// (in ms) so every quantile is exact and no two runs read the same.
type tally struct {
	lat         [3][]float64 // by loadgen.Kind
	lag         []float64    // open loop: how late each op was handed to a connection, ms
	attempted   int
	failed      int
	ok          int
	predictions int
	bytesSent   int
	probed      int
	mismatches  int
	firstErr    string
	firstBad    string
	last        time.Time // completion of the last op
	buf         bytes.Buffer
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

func (t *tally) mismatch(format string, args ...any) {
	t.mismatches++
	if t.firstBad == "" {
		t.firstBad = fmt.Sprintf(format, args...)
	}
}

// merge folds tallies into one; latency and lag slices are concatenated.
func merge(ts []*tally) *tally {
	out := &tally{}
	for _, t := range ts {
		for k := range out.lat {
			out.lat[k] = append(out.lat[k], t.lat[k]...)
		}
		out.lag = append(out.lag, t.lag...)
		out.attempted += t.attempted
		out.failed += t.failed
		out.ok += t.ok
		out.predictions += t.predictions
		out.bytesSent += t.bytesSent
		out.probed += t.probed
		out.mismatches += t.mismatches
		if out.firstErr == "" {
			out.firstErr = t.firstErr
		}
		if out.firstBad == "" {
			out.firstBad = t.firstBad
		}
		if t.last.After(out.last) {
			out.last = t.last
		}
	}
	return out
}

// sendFunc performs op i and records it in t, timing latency from due.
type sendFunc func(ctx context.Context, i uint64, due time.Time, t *tally)

// runClosed runs conns clients back to back for d, each claiming the
// next op index from next. Ops started before the deadline complete.
func runClosed(ctx context.Context, d time.Duration, next *atomic.Uint64, send sendFunc) []*tally {
	deadline := time.Now().Add(d)
	ts := make([]*tally, conns)
	var wg sync.WaitGroup
	for c := range ts {
		ts[c] = &tally{}
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				send(ctx, next.Add(1)-1, time.Now(), t)
			}
		}(ts[c])
	}
	wg.Wait()
	return ts
}

// dueOp is one open-loop arrival: the op index and when it was due.
type dueOp struct {
	i   uint64
	due time.Time
}

// runOpen sends op i at its due time — start plus the sum of gap(j) for
// j < i, counting from first — for every op due before start+d, through
// `workers` connections. A generator goroutine hands each op to the
// connections when it falls due and records how late it ran (the lag);
// latency is timed from the due time, so an op that waits behind a
// stalled request is charged the wait. It returns the tallies and the
// index after the last op sent.
func runOpen(ctx context.Context, start time.Time, first uint64, d time.Duration, workers int,
	gap func(i uint64) time.Duration, send sendFunc) ([]*tally, uint64) {
	// The queue holds every op that fell due while all connections were
	// busy; one window's worth of ops at the workload's rate fits.
	queue := make(chan dueOp, 4096)
	ts := make([]*tally, workers)
	var wg sync.WaitGroup
	for c := range ts {
		ts[c] = &tally{}
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for op := range queue {
				send(ctx, op.i, op.due, t)
			}
		}(ts[c])
	}
	i, due := first, start
	var lag []float64
	for ctx.Err() == nil {
		due = due.Add(gap(i))
		if due.Sub(start) >= d {
			break
		}
		time.Sleep(time.Until(due))
		lag = append(lag, ms(time.Since(due)))
		select {
		case queue <- dueOp{i, due}:
		case <-ctx.Done():
		}
		i++
	}
	close(queue)
	wg.Wait()
	ts[0].lag = lag
	return ts, i
}

// client sends scheduled ops to one front process and probes answers.
type client struct {
	gen     *loadgen.Generator
	url     string
	http    *http.Client
	probers map[string]*loadgen.ModelProber // by model version
}

func newClient(gen *loadgen.Generator, url string, probers map[string]*loadgen.ModelProber) *client {
	return &client{
		gen: gen,
		url: url,
		http: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		probers: probers,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// errorField marks a failed item inside a 200 batch answer: serve.
// PredictResponse carries "error" only when the item failed.
var errorField = []byte(`"error"`)

func (c *client) send(ctx context.Context, i uint64, due time.Time, t *tally) {
	op := c.gen.Op(i)
	body := c.gen.Body(op)
	t.attempted++
	t.bytesSent += len(body)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+op.Kind.Path(), bytes.NewReader(body))
	if err != nil {
		t.fail("op %d: %v", i, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		t.fail("op %d: %v", i, err)
		return
	}
	t.buf.Reset()
	_, err = t.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	t.last = time.Now()
	data := t.buf.Bytes()
	switch {
	case err != nil:
		t.fail("op %d: reading answer: %v", i, err)
		return
	case resp.StatusCode != http.StatusOK:
		t.fail("op %d: HTTP %d: %.200s", i, resp.StatusCode, data)
		return
	case bytes.Contains(data, errorField):
		t.fail("op %d: item error: %.200s", i, data)
		return
	}
	t.lat[op.Kind] = append(t.lat[op.Kind], ms(t.last.Sub(due)))
	t.ok++
	if op.Kind == loadgen.KindBatch {
		t.predictions += c.gen.BatchItems()
	} else {
		t.predictions++
	}
	if t.ok%probeEvery == 0 {
		c.probe(op, data, t)
	}
}

// probe checks every prediction in one answer bit for bit against the
// model version that served it.
func (c *client) probe(op loadgen.Op, data []byte, t *tally) {
	switch op.Kind {
	case loadgen.KindBatch:
		var resps []serve.PredictResponse
		if err := json.Unmarshal(data, &resps); err != nil {
			t.mismatch("decoding batch answer: %v", err)
			return
		}
		variants := c.gen.BatchVariants(op.Variant)
		if len(resps) != len(variants) {
			t.mismatch("batch answer has %d items, want %d", len(resps), len(variants))
			return
		}
		for j := range resps {
			c.check(c.gen.Request(variants[j]), &resps[j], t)
		}
	case loadgen.KindSuitability:
		var sr serve.SuitabilityResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.mismatch("decoding suitability answer: %v", err)
			return
		}
		c.check(c.gen.Request(op.Variant), &sr.NMC, t)
	default:
		var pr serve.PredictResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.mismatch("decoding predict answer: %v", err)
			return
		}
		c.check(c.gen.Request(op.Variant), &pr, t)
	}
}

func (c *client) check(req *serve.PredictRequest, resp *serve.PredictResponse, t *tally) {
	t.probed++
	p := c.probers[resp.ModelVersion]
	if p == nil {
		t.mismatch("answer from model version %q, which is neither model A nor model B", resp.ModelVersion)
		return
	}
	checked, err := p.Check(req, resp)
	if err == nil && !checked {
		err = fmt.Errorf("degraded answer from version %s", resp.ModelVersion)
	}
	if err != nil {
		t.mismatch("%v", err)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
