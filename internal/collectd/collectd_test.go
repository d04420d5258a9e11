package collectd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"napel/internal/napel"
	"napel/internal/obs"
	"napel/internal/resilience/faultpoint"
	"napel/internal/workload"
)

// quickOptions returns options small enough for unit tests.
func quickOptions() napel.Options {
	opts := napel.DefaultOptions()
	opts.ScaleFactor = 32
	opts.MaxIters = 1
	opts.TestScaleFactor = 16
	opts.TestMaxIters = 1
	opts.ProfileBudget = 30_000
	opts.SimBudget = 30_000
	opts.HostBudget = 60_000
	opts.TrainArchs = opts.TrainArchs[:2]
	return opts
}

func quickKernels(t *testing.T, names ...string) []workload.Kernel {
	t.Helper()
	ks := make([]workload.Kernel, 0, len(names))
	for _, n := range names {
		k, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	return ks
}

// digest serializes td exactly as persistence would and returns the
// bytes — the byte-identity oracle.
func digest(t *testing.T, td *napel.TrainingData) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := napel.SaveTrainingData(&buf, td); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// startCluster serves a coordinator over real HTTP and launches n
// workers against it, returning the coordinator and a per-worker cancel.
func startCluster(t *testing.T, c *Coordinator, n int, seed uint64) []context.CancelFunc {
	t.Helper()
	mux := http.NewServeMux()
	RegisterAPI(mux, c)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	cancels := make([]context.CancelFunc, n)
	var wg sync.WaitGroup
	// Registered before the per-worker cancels so it runs after them
	// (cleanups are LIFO): every worker is cancelled before we wait.
	t.Cleanup(wg.Wait)
	for i := 0; i < n; i++ {
		w, err := NewWorker(WorkerConfig{
			Coordinator:  srv.URL,
			ID:           string(rune('a' + i)),
			PollInterval: 20 * time.Millisecond,
			Seed:         seed + uint64(i),
		})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		t.Cleanup(cancel)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	return cancels
}

// TestDistributedByteIdenticalWithWorkerKill is the tentpole's
// correctness oracle: a 2-worker distributed collection — one worker
// killed mid-run, its leases expiring and requeueing — must produce
// TrainingData byte-identical to serial in-process collection. kme and
// bfs join atax because they have many branch sites, whose features
// only sum to the same bits in every process when summed in PC order.
func TestDistributedByteIdenticalWithWorkerKill(t *testing.T) {
	kernels := quickKernels(t, "atax", "kme", "bfs")
	opts := quickOptions()
	opts.Workers = 4

	serial := opts
	serial.Workers = 1
	serial.Executor = nil
	ref, err := napel.Collect(kernels, serial)
	if err != nil {
		t.Fatalf("serial collect: %v", err)
	}
	want := digest(t, ref)

	c := NewCoordinator(Config{LeaseTTL: 300 * time.Millisecond, Logf: t.Logf})
	cancels := startCluster(t, c, 2, 7)

	// Kill worker 0 once the run is underway: its in-flight leases miss
	// their heartbeats, expire, and requeue onto the survivor.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if c.Stats().Completed >= 2 {
				cancels[0]()
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		cancels[0]()
	}()

	opts.Executor = c.Executor()
	got, err := napel.Collect(kernels, opts)
	if err != nil {
		t.Fatalf("distributed collect: %v", err)
	}
	<-killed
	if !bytes.Equal(digest(t, got), want) {
		t.Fatal("distributed TrainingData differs from serial reference")
	}
	if len(got.Samples) != len(ref.Samples) {
		t.Fatalf("got %d samples, want %d", len(got.Samples), len(ref.Samples))
	}
}

// TestLeaseExpiryRequeues pins the lease state machine with an
// injectable clock: an un-heartbeated lease is revoked at its deadline
// and the unit offered to the next worker, while the late completion of
// the dead lease is rejected.
func TestLeaseExpiryRequeues(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	reg := obs.NewRegistry()
	c := NewCoordinator(Config{LeaseTTL: time.Second, Now: clock, Registry: reg})
	spec := napel.UnitSpec{Kernel: "atax", Input: workload.Input{"dim": 8, "threads": 1}, ProfileBudget: 1, SimBudget: 1, TrainArchs: quickOptions().TrainArchs}
	spec.Key = napel.UnitKey(spec.Kernel, spec.Input)

	done := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_, err := c.Execute(ctx, spec)
		done <- err
	}()

	// Worker w1 claims the unit, then goes silent.
	var l1 Lease
	waitFor(t, func() bool {
		var ok bool
		l1, ok = c.Lease("w1", nil)
		return ok
	})
	if l1.Spec.Key != spec.Key {
		t.Fatalf("leased %q, want %q", l1.Spec.Key, spec.Key)
	}
	if _, ok := c.Lease("w2", nil); ok {
		t.Fatal("second lease granted while the unit is already leased")
	}

	// Heartbeat keeps it alive across the original deadline...
	advance(700 * time.Millisecond)
	if unknown := c.Heartbeat("w1", []string{l1.ID}); len(unknown) != 0 {
		t.Fatalf("live lease reported unknown: %v", unknown)
	}
	advance(700 * time.Millisecond)
	if _, ok := c.Lease("w2", nil); ok {
		t.Fatal("heartbeated lease expired anyway")
	}

	// ...but silence past the TTL revokes it and requeues the unit.
	advance(1100 * time.Millisecond)
	l2, ok := c.Lease("w2", nil)
	if !ok || l2.Spec.Key != spec.Key {
		t.Fatalf("expired unit not re-leased: ok=%v", ok)
	}
	if unknown := c.Heartbeat("w1", []string{l1.ID}); len(unknown) != 1 || unknown[0] != l1.ID {
		t.Fatalf("dead lease not reported unknown: %v", unknown)
	}

	// The dead lease cannot complete; the live one can.
	if err := c.Complete("w1", l1.ID, nil, "", "boom"); err != ErrUnknownLease {
		t.Fatalf("expired completion: err=%v, want ErrUnknownLease", err)
	}
	payload, err := napel.ExecuteUnit(context.Background(), l2.Spec, nil)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	body, _ := json.Marshal(payload)
	if err := c.Complete("w2", l2.ID, body, hashPayload(body), ""); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("execute returned %v", err)
	}
	st := c.Stats()
	if st.Expired != 1 || st.Requeued != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 expired / 1 requeued / 1 completed", st)
	}
	var buf bytes.Buffer
	reg.WriteText(&buf)
	if !bytes.Contains(buf.Bytes(), []byte(`napel_collectd_completes_total{result="ok"} 1`)) {
		t.Fatalf("metrics missing ok completion:\n%s", buf.String())
	}
}

// TestCorruptPayloadRejectedAndRequeued proves the content-hash check:
// bytes that do not hash to the declared sum never reach the engine and
// the unit is immediately requeued.
func TestCorruptPayloadRejectedAndRequeued(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Minute})
	spec := napel.UnitSpec{Kernel: "atax", Input: workload.Input{"dim": 8, "threads": 1}, ProfileBudget: 1000, SimBudget: 1000, TrainArchs: quickOptions().TrainArchs[:1]}
	spec.Key = napel.UnitKey(spec.Kernel, spec.Input)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Execute(ctx, spec)
		done <- err
	}()

	var l Lease
	waitFor(t, func() bool {
		var ok bool
		l, ok = c.Lease("w1", nil)
		return ok
	})
	payload, err := napel.ExecuteUnit(context.Background(), l.Spec, nil)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	body, _ := json.Marshal(payload)
	sum := hashPayload(body)
	corrupt := append([]byte(nil), body...)
	corrupt[len(corrupt)/2] ^= 0x20
	if err := c.Complete("w1", l.ID, corrupt, sum, ""); err != ErrPayloadHash {
		t.Fatalf("corrupt completion: err=%v, want ErrPayloadHash", err)
	}
	// The unit went back to the queue front; a clean retry succeeds.
	l2, ok := c.Lease("w1", nil)
	if !ok {
		t.Fatal("corrupt unit was not requeued")
	}
	if err := c.Complete("w1", l2.ID, body, sum, ""); err != nil {
		t.Fatalf("clean completion: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("execute returned %v", err)
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt count = %d, want 1", st.Corrupt)
	}
}

// TestChaosDistributedStillByteIdentical turns on every collectd
// faultpoint at aggressive rates — failed lease polls, failed
// completions, corrupted payload bytes — and requires the distributed
// output to remain byte-identical to the serial reference.
func TestChaosDistributedStillByteIdentical(t *testing.T) {
	kernels := quickKernels(t, "atax")
	opts := quickOptions()
	opts.Workers = 4

	serial := opts
	serial.Workers = 1
	ref, err := napel.Collect(kernels, serial)
	if err != nil {
		t.Fatalf("serial collect: %v", err)
	}
	want := digest(t, ref)

	if err := faultpoint.Enable(3, "collectd.lease:0.2,collectd.complete:0.2,collectd.payload:0.3"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Disable()

	reg := obs.NewRegistry()
	c := NewCoordinator(Config{LeaseTTL: 300 * time.Millisecond, Registry: reg, Logf: t.Logf})
	startCluster(t, c, 2, 11)

	opts.Executor = c.Executor()
	got, err := napel.Collect(kernels, opts)
	if err != nil {
		t.Fatalf("distributed collect under chaos: %v", err)
	}
	if !bytes.Equal(digest(t, got), want) {
		t.Fatal("chaos run diverged from serial reference")
	}
	if faultpoint.TotalInjected() == 0 {
		t.Fatal("chaos plan injected nothing; the test proved nothing")
	}
	t.Logf("injected: lease=%d complete=%d payload=%d; stats=%+v",
		faultpoint.Count(fpLease), faultpoint.Count(fpComplete), faultpoint.Count(fpPayload), c.Stats())
}

// waitFor polls cond until it holds or the test deadline approaches.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestAPIBodyStatuses: a worker-protocol body past maxCompleteBytes is
// refused 413, not cut short and answered 400 as a decode error, and an
// unknown field is still a 400.
func TestAPIBodyStatuses(t *testing.T) {
	mux := http.NewServeMux()
	RegisterAPI(mux, NewCoordinator(Config{}))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	for _, c := range []struct {
		name, path, body string
		status           int
	}{
		{"complete past the limit", "/v1/complete",
			`{"worker":"w","lease":"l","error":"` + strings.Repeat("x", maxCompleteBytes) + `"}`,
			http.StatusRequestEntityTooLarge},
		{"unknown field", "/v1/lease", `{"worker":"w","bogus":1}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: HTTP %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
}
