package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStall drives a server that handles one request at
// a time and stalls once for 100 ms. The schedule must not slip: every
// op keeps its due time, so the ops that fell due during the stall are
// sent late and charged the wait from their due time.
func TestOpenLoopChargesStall(t *testing.T) {
	const gap, stall = 5 * time.Millisecond, 100 * time.Millisecond
	var mu sync.Mutex
	var served atomic.Int32
	var stallStart, stallEnd atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if served.Add(1) == 4 {
			stallStart.Store(time.Now().UnixNano())
			time.Sleep(stall)
			stallEnd.Store(time.Now().UnixNano())
		}
	}))
	defer srv.Close()

	type result struct{ due, sent, done time.Time }
	results := make([]result, 64)
	send := func(ctx context.Context, i uint64, due time.Time, tl *tally) {
		sent := time.Now()
		tl.attempted++
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			tl.fail("%v", err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results[i] = result{due: due, sent: sent, done: time.Now()}
	}
	start := time.Now()
	ts, next := runOpen(context.Background(), start, 0, 40*gap, conns,
		func(uint64) time.Duration { return gap }, send)
	tot := merge(ts)

	if next != 39 || tot.attempted != 39 || tot.failed != 0 {
		t.Fatalf("sent %d ops (next %d), %d failed; want 39 sent, 0 failed", tot.attempted, next, tot.failed)
	}
	if stallEnd.Load() == 0 {
		t.Fatal("the server never stalled")
	}
	begin, end := time.Unix(0, stallStart.Load()), time.Unix(0, stallEnd.Load())
	behind, queued := 0, 0
	for i, r := range results[:next] {
		if want := start.Add(time.Duration(i+1) * gap); !r.due.Equal(want) {
			t.Fatalf("op %d due %v after start, want %v", i, r.due.Sub(start), want.Sub(start))
		}
		if r.due.Before(begin) || !r.due.Before(end) {
			continue
		}
		behind++
		if !r.sent.Before(end) {
			queued++
		}
		if r.done.Before(end) {
			t.Errorf("op %d, due %v into the stall, was done %v before it ended", i, r.due.Sub(begin), end.Sub(r.done))
		}
	}
	// One connection holds the stalled request and the other the first
	// op due after it; every later op waits in the queue.
	if behind < 10 || queued < behind-2 {
		t.Errorf("%d ops fell due during the stall and %d of them were sent after it; want >= 10, all but the ones in flight", behind, queued)
	}
	if lag := quantile(tot.lag, 0.99); lag > 50 {
		t.Errorf("generator lag p99 %.1f ms: the stall held up the schedule", lag)
	}
}
