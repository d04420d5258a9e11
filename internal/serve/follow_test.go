package serve

import (
	"context"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"napel/internal/atomicfile"
	"napel/internal/nmcsim"
)

func TestReloadIfChanged(t *testing.T) {
	f := fixture(t)
	s, modelPath := newTestServer(t, Config{})
	reg := s.Registry()
	base := reg.Reloads()
	before, _ := reg.Get("")

	// Unchanged file: no new generation, same predictor identity.
	installed, _, err := reg.install(false)
	if err != nil || installed != nil {
		t.Fatalf("unchanged poll: installed=%v err=%v", installed, err)
	}
	if reg.Reloads() != base {
		t.Fatalf("no-op poll bumped reloads to %d", reg.Reloads())
	}
	after, _ := reg.Get("")
	if after.Predictor != before.Predictor {
		t.Fatal("no-op poll replaced the loaded predictor")
	}

	// Atomic flip to different weights: one new generation.
	data, err := os.ReadFile(f.modelB)
	if err != nil {
		t.Fatal(err)
	}
	if err := atomicfile.WriteFileData(modelPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	installed, _, err = reg.install(false)
	if err != nil || installed == nil {
		t.Fatalf("changed poll: installed=%v err=%v", installed, err)
	}
	if reg.Reloads() != base+1 {
		t.Fatalf("reloads %d, want %d", reg.Reloads(), base+1)
	}
	got, _ := reg.Get("")
	if got.Version == before.Version {
		t.Fatal("version unchanged after content flip")
	}

	// A missing file fails the poll but keeps the generation serving.
	if err := os.Remove(modelPath); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.install(false); err == nil {
		t.Fatal("poll of missing file succeeded")
	}
	still, ok := reg.Get("")
	if !ok || still.Predictor == nil {
		t.Fatal("generation lost after failed poll")
	}
}

// TestFollowInstallsPromotedModel drives the polling loop behind
// -follow end to end: an external writer atomically replaces the model
// file (exactly what napel-traind's promotion does to
// current-model.json) and the loop installs it without any reload call.
func TestFollowInstallsPromotedModel(t *testing.T) {
	f := fixture(t)
	s, modelPath := newTestServer(t, Config{})
	reg := s.Registry()
	before, _ := reg.Get("")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.follow(ctx, time.Millisecond)
	}()

	data, err := os.ReadFile(f.modelB)
	if err != nil {
		t.Fatal(err)
	}
	if err := atomicfile.WriteFileData(modelPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := reg.Get("")
		if got.Version != before.Version {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follow never installed the new model")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
}

// TestReloadVsWriterRace is the satellite regression test for the
// promotion path: one goroutine atomically republishes the model file
// as fast as it can, while readers hammer follow polls and full
// reloads, and predict through whatever generation is installed. Run
// under -race.
// The invariant: every poll either loads a complete valid model or
// fails cleanly leaving the old generation — a torn read would surface
// as a decode error or a version that matches neither publication.
func TestReloadVsWriterRace(t *testing.T) {
	f := fixture(t)
	s, modelPath := newTestServer(t, Config{})
	reg := s.Registry()

	dataA, err := os.ReadFile(f.modelA)
	if err != nil {
		t.Fatal(err)
	}
	dataB, err := os.ReadFile(f.modelB)
	if err != nil {
		t.Fatal(err)
	}
	// The two legal versions: the content hashes of the two files.
	versions := map[string]bool{ContentVersion(dataA): true, ContentVersion(dataB): true}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)

	// Writer: atomic republications, alternating content.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			d := dataA
			if i%2 == 1 {
				d = dataB
			}
			if err := atomicfile.WriteFileData(modelPath, d, 0o644); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Poller: a follow poll must never fail or install a torn model.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, _, err := reg.install(false); err != nil {
				errs <- err
				return
			}
			got, ok := reg.Get("")
			if !ok || !versions[got.Version] {
				errs <- os.ErrInvalid
				return
			}
		}
	}()

	// Full reloader: the manual reload endpoint races the poller too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, _, err := reg.install(true); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Reader: predictions flow through whichever generation is current.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cfg := nmcsim.DefaultConfig()
		for !stop.Load() {
			m, ok := reg.Get("")
			if !ok {
				errs <- os.ErrNotExist
				return
			}
			p := m.Predictor.Predict(f.prof, cfg, f.threads)
			if p.IPC <= 0 {
				errs <- os.ErrInvalid
				return
			}
		}
	}()

	time.Sleep(500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("race invariant violated: %v", err)
	}
}
