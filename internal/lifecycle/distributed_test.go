package lifecycle

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"napel/internal/collectd"
)

// TestDistributedJobMatchesSerialDataHash runs the same spec twice —
// once with in-process collection, once leased to two napel-worker
// loops through the daemon's own API mux — and checks the promoted
// manifests record the same training-data content hash. That is the
// lifecycle-level restatement of the collectd byte-identity oracle.
func TestDistributedJobMatchesSerialDataHash(t *testing.T) {
	serialM := newTestManager(t, t.TempDir(), nil)
	stopSerial := runManager(serialM)
	serialJob, err := serialM.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	serialJob = waitTerminal(t, serialM, serialJob.ID, 2*time.Minute)
	stopSerial()
	if serialJob.State != StatePromoted {
		t.Fatalf("serial job finished %s (error %q)", serialJob.State, serialJob.Error)
	}
	serialCur, err := serialM.store.Current()
	if err != nil {
		t.Fatal(err)
	}

	distM := newTestManager(t, t.TempDir(), func(cfg *ManagerConfig) {
		cfg.Coordinator = &collectd.Config{LeaseTTL: 2 * time.Second, Logf: t.Logf}
	})
	srv := httptest.NewServer(NewAPIHandler(distM))
	t.Cleanup(srv.Close)

	// Cleanups run LIFO: register the wait first so the worker cancels
	// (registered below) fire before it.
	var wg sync.WaitGroup
	t.Cleanup(wg.Wait)
	for i := 0; i < 2; i++ {
		w, err := collectd.NewWorker(collectd.WorkerConfig{
			Coordinator:  srv.URL,
			ID:           fmt.Sprintf("lw%d", i),
			PollInterval: 20 * time.Millisecond,
			Seed:         uint64(i + 1),
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}

	stopDist := runManager(distM)
	defer stopDist()
	spec := quickSpec()
	spec.Distributed = true
	distJob, err := distM.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	distJob = waitTerminal(t, distM, distJob.ID, 2*time.Minute)
	if distJob.State != StatePromoted {
		t.Fatalf("distributed job finished %s (error %q)", distJob.State, distJob.Error)
	}
	distCur, err := distM.store.Current()
	if err != nil {
		t.Fatal(err)
	}
	if distCur.DataHash != serialCur.DataHash {
		t.Fatalf("distributed data hash %s != serial %s", distCur.DataHash, serialCur.DataHash)
	}
	if distCur.ModelHash != serialCur.ModelHash {
		t.Fatalf("distributed model hash %s != serial %s", distCur.ModelHash, serialCur.ModelHash)
	}
	if s := distM.coord.Stats(); s.Completed == 0 {
		t.Fatalf("coordinator saw no completions: %+v", s)
	}
}

// A distributed job on a daemon without a coordinator must fail
// permanently (no retry loop can fix a missing subsystem).
func TestDistributedJobFailsWithoutCoordinator(t *testing.T) {
	m := newTestManager(t, t.TempDir(), nil)
	stop := runManager(m)
	defer stop()

	spec := quickSpec()
	spec.Distributed = true
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	job = waitTerminal(t, m, job.ID, time.Minute)
	if job.State != StateFailed {
		t.Fatalf("job finished %s, want failed", job.State)
	}
	if !strings.Contains(job.Error, "coordinator") {
		t.Fatalf("error %q does not name the missing coordinator", job.Error)
	}
	if job.Attempt != 1 {
		t.Fatalf("permanent failure retried: attempt %d", job.Attempt)
	}
}

// TestActiveJobPromotes drives the uncertainty-sampling loop through
// the manager: the job must promote, record its round count, and
// simulate fewer units than the exhaustive DoE plan would.
func TestActiveJobPromotes(t *testing.T) {
	m := newTestManager(t, t.TempDir(), nil)
	stop := runManager(m)
	defer stop()

	spec := quickSpec()
	spec.Active = true
	spec.ActiveSeedUnits = 3
	spec.ActiveRoundUnits = 2
	spec.ActiveMaxUnits = 5
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	job = waitTerminal(t, m, job.ID, 2*time.Minute)
	if job.State != StatePromoted {
		t.Fatalf("active job finished %s (error %q)", job.State, job.Error)
	}
	if job.Rounds == 0 {
		t.Fatalf("active job recorded no rounds: %+v", job)
	}
	if job.UnitsDone == 0 || job.UnitsDone > spec.ActiveMaxUnits {
		t.Fatalf("active job simulated %d units, budget %d", job.UnitsDone, spec.ActiveMaxUnits)
	}
	if job.Metrics == nil || job.Samples == 0 {
		t.Fatalf("promoted active job missing results: %+v", job)
	}
}

// TestActiveJobScoresRoundsOnDaemonHoldout: an active spec that sets no
// holdout fraction scores its rounds on the daemon's -holdout-frac, the
// fraction its gate uses. The last round then scored the collected
// dataset exactly as the evaluate stage does, so its holdout MRE is the
// job's recorded metric.
func TestActiveJobScoresRoundsOnDaemonHoldout(t *testing.T) {
	m := newTestManager(t, t.TempDir(), func(cfg *ManagerConfig) {
		cfg.HoldoutFrac = 0.4
	})
	stop := runManager(m)
	defer stop()

	spec := quickSpec()
	spec.Active = true
	spec.ActiveSeedUnits = 3
	spec.ActiveRoundUnits = 2
	spec.ActiveMaxUnits = 5
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	job = waitTerminal(t, m, job.ID, 2*time.Minute)
	if job.State != StatePromoted {
		t.Fatalf("active job finished %s (error %q)", job.State, job.Error)
	}
	last := m.o.reg.Gauge("napel_collectd_holdout_mre", "").Value()
	if want := job.Metrics.Combined(); last != want {
		t.Fatalf("last round scored holdout MRE %v, the gate %v: rounds and gate hold out different fractions", last, want)
	}
}

// Misconfigured specs are rejected at the API boundary.
func TestDistributedAndActiveSpecValidation(t *testing.T) {
	m := newTestManager(t, t.TempDir(), nil)

	bad := quickSpec()
	bad.ActiveRoundUnits = 2 // active_* without active: true
	if _, err := m.Submit(bad); err == nil {
		t.Fatal("active_round_units without active accepted")
	}
	neg := quickSpec()
	neg.Active = true
	neg.ActiveTargetMRE = -0.1
	if _, err := m.Submit(neg); err == nil {
		t.Fatal("negative active_target_mre accepted")
	}
}
