package collectd

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"napel/internal/napel"
	"napel/internal/obs"
	"napel/internal/workload"
)

// scrape renders reg and parses it back into series values.
func scrape(t *testing.T, reg *obs.Registry) obs.Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// checkStats fails unless every count in c's Stats equals want and the
// napel_collectd_* series it is read from.
func checkStats(t *testing.T, c *Coordinator, reg *obs.Registry, want Stats) {
	t.Helper()
	st, snap := c.Stats(), scrape(t, reg)
	for _, f := range []struct {
		name      string
		got, want uint64
		series    string
	}{
		{"Completed", st.Completed, want.Completed, `napel_collectd_completes_total{result="ok"}`},
		{"RemoteErrors", st.RemoteErrors, want.RemoteErrors, `napel_collectd_completes_total{result="error"}`},
		{"Corrupt", st.Corrupt, want.Corrupt, `napel_collectd_completes_total{result="corrupt"}`},
		{"Requeued", st.Requeued, want.Requeued, "napel_collectd_requeues_total"},
		{"Expired", st.Expired, want.Expired, "napel_collectd_lease_expired_total"},
		{"Replayed", st.Replayed, want.Replayed, "napel_collectd_journal_replayed_total"},
	} {
		if f.got != f.want {
			t.Errorf("Stats.%s = %d, want %d", f.name, f.got, f.want)
		}
		if !snap.Has(f.series) || uint64(snap.Value(f.series)) != f.got {
			t.Errorf("Stats.%s = %d but %s reads %v", f.name, f.got, f.series, snap.Value(f.series))
		}
	}
}

// TestStatsReadTheMetricSeries drives one of each counted coordinator
// event — an ok completion, a remote error, a corrupt payload (which
// requeues), an expired lease (which requeues) and, on a second
// coordinator over the same journal, a replay — and checks that GET
// /v1/collect's counts and the napel_collectd_* series are one count.
func TestStatsReadTheMetricSeries(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
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
	specFor := func(dim int) napel.UnitSpec {
		s := napel.UnitSpec{Kernel: "atax", Input: workload.Input{"dim": dim, "threads": 1}, ProfileBudget: 1, SimBudget: 1, TrainArchs: quickOptions().TrainArchs[:1]}
		s.Key = napel.UnitKey(s.Kernel, s.Input)
		return s
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	execute := func(c *Coordinator, spec napel.UnitSpec) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := c.Execute(ctx, spec)
			done <- err
		}()
		return done
	}
	lease := func(c *Coordinator, worker string) Lease {
		var l Lease
		waitFor(t, func() bool {
			var ok bool
			l, ok = c.Lease(worker, nil)
			return ok
		})
		return l
	}

	path := filepath.Join(t.TempDir(), "collect.journal")
	j1 := openJournal(t, path)
	reg1 := obs.NewRegistry()
	c1 := NewCoordinator(Config{LeaseTTL: time.Second, Now: clock, Journal: j1, Registry: reg1, Logf: t.Logf})
	checkStats(t, c1, reg1, Stats{})

	a := specFor(8)
	doneA := execute(c1, a)
	payload, err := napel.ExecuteUnit(context.Background(), a, nil)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	body, _ := json.Marshal(payload)
	sum := hashPayload(body)
	corrupt := append([]byte(nil), body...)
	corrupt[len(corrupt)/2] ^= 0x20
	if err := c1.Complete("w1", lease(c1, "w1").ID, corrupt, sum, ""); err != ErrPayloadHash {
		t.Fatalf("corrupt completion: err=%v, want ErrPayloadHash", err)
	}
	lease(c1, "w1") // w1 goes silent on its second lease
	advance(1100 * time.Millisecond)
	if err := c1.Complete("w2", lease(c1, "w2").ID, body, sum, ""); err != nil {
		t.Fatalf("clean completion: %v", err)
	}
	if err := <-doneA; err != nil {
		t.Fatalf("execute returned %v", err)
	}

	doneB := execute(c1, specFor(16))
	if err := c1.Complete("w2", lease(c1, "w2").ID, nil, "", "boom"); err != nil {
		t.Fatalf("error completion: %v", err)
	}
	if err := <-doneB; err == nil {
		t.Fatal("a remote error reached the engine as a success")
	}
	checkStats(t, c1, reg1, Stats{Completed: 1, RemoteErrors: 1, Corrupt: 1, Requeued: 2, Expired: 1})
	j1.Close()

	j2 := openJournal(t, path)
	reg2 := obs.NewRegistry()
	c2 := NewCoordinator(Config{LeaseTTL: time.Second, Now: clock, Journal: j2, Registry: reg2, Logf: t.Logf})
	if err := <-execute(c2, a); err != nil {
		t.Fatalf("replayed execute: %v", err)
	}
	checkStats(t, c2, reg2, Stats{Replayed: 1})
}

// TestActiveReportsToOptionsMetrics pins where an active run reports:
// the round series land on opts.Metrics, the registry its engine rounds
// use, and count what the report says happened.
func TestActiveReportsToOptionsMetrics(t *testing.T) {
	kernels := quickKernels(t, "atax")
	opts := quickOptions()
	opts.Workers = 2
	opts.Metrics = obs.NewRegistry()
	_, report, err := ActiveCollect(context.Background(), kernels, opts, ActiveConfig{Seed: 5, SeedUnits: 2, RoundUnits: 2, MaxUnits: 6})
	if err != nil {
		t.Fatalf("active collect: %v", err)
	}
	if len(report.Rounds) < 2 {
		t.Fatalf("run had %d round(s); the check needs the seed round and one more", len(report.Rounds))
	}
	selected := 0
	for _, r := range report.Rounds {
		selected += len(r.Selected)
	}
	snap := scrape(t, opts.Metrics)
	for _, c := range []struct {
		series string
		want   int
	}{
		{"napel_collectd_rounds_total", len(report.Rounds)},
		{"napel_collectd_selected_total", selected},
		{"napel_engine_units_done_total", report.UnitsSimulated - report.Quarantined},
	} {
		if got := snap.Value(c.series); !snap.Has(c.series) || got != float64(c.want) {
			t.Errorf("%s = %v, want %d", c.series, got, c.want)
		}
	}
}
