package collectd

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"napel/internal/atomicfile"
	"napel/internal/napel"
	"napel/internal/workload"
)

// openJournal is a test helper that fails fast.
func openJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path, t.Logf)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// countCompletes parses a journal file and returns its complete-record
// count and the total byte length of the file.
func countCompletes(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		var rec journalRecord
		if json.Unmarshal(line, &rec) == nil && rec.T == "complete" {
			n++
		}
	}
	return n
}

// TestJournalRestartReplaysWithoutWorkers is the crash-durability
// oracle in its purest form: after a journaled distributed run, a
// brand-new coordinator on the same journal — with NO workers at all —
// must complete the identical job entirely from replayed completions,
// byte-identical to the serial reference. That is exactly the state a
// SIGKILLed-and-restarted traind is in, minus the scheduling noise.
func TestJournalRestartReplaysWithoutWorkers(t *testing.T) {
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

	path := filepath.Join(t.TempDir(), "collect.journal")
	j1 := openJournal(t, path)
	c1 := NewCoordinator(Config{LeaseTTL: 300 * time.Millisecond, Journal: j1, Logf: t.Logf})
	startCluster(t, c1, 2, 3)
	run1 := opts
	run1.Executor = c1.Executor()
	got1, err := napel.Collect(kernels, run1)
	if err != nil {
		t.Fatalf("journaled distributed collect: %v", err)
	}
	if !bytes.Equal(digest(t, got1), want) {
		t.Fatal("journaled run diverged from serial reference")
	}
	j1.Close() // the "crash": c1 and its workers are never used again

	units := countCompletes(t, path)
	if units == 0 {
		t.Fatal("journal recorded no completions")
	}

	j2 := openJournal(t, path)
	c2 := NewCoordinator(Config{LeaseTTL: 300 * time.Millisecond, Journal: j2, Logf: t.Logf})
	run2 := opts
	run2.Executor = c2.Executor()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got2, err := napel.CollectContext(ctx, kernels, run2)
	if err != nil {
		t.Fatalf("replayed collect: %v", err)
	}
	if !bytes.Equal(digest(t, got2), want) {
		t.Fatal("replayed run diverged from serial reference")
	}
	if st := c2.Stats(); st.Replayed != uint64(units) {
		t.Fatalf("replayed %d units, want all %d from the journal", st.Replayed, units)
	}
}

// TestJournalTornTailDropped proves the torn-tail contract end-to-end:
// a journal whose final record was cut mid-write (the residue of a
// crash during an append) replays every intact completion, drops the
// torn one, and a single worker re-executes just that unit — output
// still byte-identical.
func TestJournalTornTailDropped(t *testing.T) {
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

	path := filepath.Join(t.TempDir(), "collect.journal")
	j1 := openJournal(t, path)
	c1 := NewCoordinator(Config{LeaseTTL: 300 * time.Millisecond, Journal: j1, Logf: t.Logf})
	startCluster(t, c1, 2, 5)
	run1 := opts
	run1.Executor = c1.Executor()
	if _, err := napel.Collect(kernels, run1); err != nil {
		t.Fatalf("journaled distributed collect: %v", err)
	}
	j1.Close()

	before := countCompletes(t, path)
	if before < 2 {
		t.Fatalf("need at least 2 journaled completions, have %d", before)
	}
	// Tear the tail: chop 40 bytes off the file, landing mid-record
	// (every complete record is far longer than that).
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-40); err != nil {
		t.Fatal(err)
	}

	j2 := openJournal(t, path)
	if j2.Dropped() == 0 {
		t.Fatal("torn tail not detected")
	}
	c2 := NewCoordinator(Config{LeaseTTL: 300 * time.Millisecond, Journal: j2, Logf: t.Logf})
	startCluster(t, c2, 1, 9) // one worker to redo the torn unit
	run2 := opts
	run2.Executor = c2.Executor()
	got, err := napel.Collect(kernels, run2)
	if err != nil {
		t.Fatalf("post-truncation collect: %v", err)
	}
	if !bytes.Equal(digest(t, got), want) {
		t.Fatal("post-truncation run diverged from serial reference")
	}
	st := c2.Stats()
	if st.Replayed == 0 {
		t.Fatal("intact records were not replayed")
	}
	if st.Completed == 0 {
		t.Fatal("torn unit was not re-executed by the worker")
	}
}

// FuzzJournalReplay opens a journal of arbitrary bytes, as a crash or a
// damaged disk could leave one. OpenJournal must not panic; it may fail
// only on an undecodable record before the last line; every replayable
// completion's payload must hash to its recorded sha256; and reopening
// the same bytes must replay the same set.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "collect.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lines, _, err := atomicfile.ReadLines(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := -1
		for i, line := range lines {
			var rec journalRecord
			if json.Unmarshal(line, &rec) != nil {
				bad = i
				break
			}
		}

		j, err := OpenJournal(path, nil)
		if wantErr := bad >= 0 && bad < len(lines)-1; (err != nil) != wantErr {
			t.Fatalf("OpenJournal error %v; first undecodable record %d of %d", err, bad, len(lines))
		}
		if err != nil {
			return
		}
		j.Close()
		for key, rec := range j.completed {
			sum := sha256.Sum256(rec.Payload)
			if rec.T != "complete" || rec.Key != key || hex.EncodeToString(sum[:]) != rec.SHA256 {
				t.Fatalf("replayable %q: record %+v does not match its payload's sha256 %x", key, rec, sum)
			}
		}

		j2, err := OpenJournal(path, nil)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		j2.Close()
		if !reflect.DeepEqual(j.completed, j2.completed) || j.replayed != j2.replayed {
			t.Fatalf("reopening replays %d unit(s), first open %d", j2.replayed, j.replayed)
		}
	})
}

// TestJournalRejectsStaleSpec: a journal built under one job
// configuration must not answer the same unit key planned under a
// different configuration — the spec hash scopes replay.
func TestJournalRejectsStaleSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "collect.journal")
	spec := napel.UnitSpec{Kernel: "atax", Input: workload.Input{"dim": 8, "threads": 1}, ProfileBudget: 1000, SimBudget: 1000, TrainArchs: quickOptions().TrainArchs[:1]}
	spec.Key = napel.UnitKey(spec.Kernel, spec.Input)
	payload, err := napel.ExecuteUnit(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(payload)

	j := openJournal(t, path)
	j.record(journalRecord{T: "complete", Key: spec.Key, Spec: specHash(spec), SHA256: hashPayload(body), Payload: body}, true)
	j.Close()

	j2 := openJournal(t, path)
	if _, ok := j2.replayable(spec.Key, specHash(spec)); !ok {
		t.Fatal("identical spec must replay")
	}
	changed := spec
	changed.SimBudget = 2000
	if _, ok := j2.replayable(changed.Key, specHash(changed)); ok {
		t.Fatal("a different spec hash (same key) must not replay")
	}
}

// TestTagAwareLeasing: tagged units are only leased to workers
// advertising every required tag; untagged units go anywhere; a worker
// matching nothing is counted, not blocked.
func TestTagAwareLeasing(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Minute, Logf: t.Logf})
	archs := quickOptions().TrainArchs[:1]
	plain := napel.UnitSpec{Kernel: "atax", Input: workload.Input{"dim": 8, "threads": 1}, ProfileBudget: 1000, SimBudget: 1000, TrainArchs: archs}
	plain.Key = napel.UnitKey(plain.Kernel, plain.Input)
	tagged := napel.UnitSpec{Kernel: "atax", Input: workload.Input{"dim": 16, "threads": 1}, ProfileBudget: 1000, SimBudget: 1000, TrainArchs: archs, Tags: []string{"hmc", "x86"}}
	tagged.Key = napel.UnitKey(tagged.Kernel, tagged.Input)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 2)
	for _, s := range []napel.UnitSpec{plain, tagged} {
		s := s
		go func() {
			_, err := c.Execute(ctx, s)
			done <- err
		}()
	}

	// The untagged worker can only ever take the untagged unit.
	var l1 Lease
	waitFor(t, func() bool {
		// Both goroutines must have enqueued before we assert on the
		// queue, so poll until the untagged unit shows up.
		var ok bool
		l1, ok = c.Lease("plain-worker", nil)
		return ok
	})
	if l1.Spec.Key != plain.Key {
		t.Fatalf("untagged worker leased %q (tags %v), want the untagged unit %q", l1.Spec.Key, l1.Spec.Tags, plain.Key)
	}
	waitFor(t, func() bool { return c.Stats().Pending == 1 })
	if _, ok := c.Lease("plain-worker", nil); ok {
		t.Fatal("untagged worker must not receive a tagged unit")
	}
	if _, ok := c.Lease("half-worker", []string{"x86"}); ok {
		t.Fatal("worker with a subset of the required tags must not receive the unit")
	}
	l2, ok := c.Lease("tag-worker", []string{"x86", "extra", "hmc"})
	if !ok || l2.Spec.Key != tagged.Key {
		t.Fatalf("superset-tagged worker should lease the tagged unit: ok=%v", ok)
	}

	for _, l := range []Lease{l1, l2} {
		payload, err := napel.ExecuteUnit(context.Background(), l.Spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(payload)
		if err := c.Complete("any", l.ID, body, hashPayload(body), ""); err != nil {
			t.Fatalf("complete %s: %v", l.Spec.Key, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	w, ok := st.Workers["tag-worker"]
	if !ok {
		t.Fatalf("tag-worker not registered: %+v", st.Workers)
	}
	if len(w.Tags) != 3 {
		t.Fatalf("tag-worker tags = %v, want the 3 advertised", w.Tags)
	}
}

// TestWorkerExpiryDeregisters: a worker silent past WorkerExpiry is
// dropped from the membership set by the same sweep that reaps leases.
func TestWorkerExpiryDeregisters(t *testing.T) {
	now := time.Unix(2000, 0)
	clock := func() time.Time { return now }
	c := NewCoordinator(Config{LeaseTTL: time.Second, WorkerExpiry: 3 * time.Second, Now: clock, Logf: t.Logf})

	c.Lease("w-silent", []string{"a"})
	c.Lease("w-chatty", nil)
	ep0 := c.Stats().WorkerEpoch
	if len(c.Stats().Workers) != 2 {
		t.Fatalf("workers = %+v, want 2 registered", c.Stats().Workers)
	}

	now = now.Add(2 * time.Second)
	c.Heartbeat("w-chatty", nil)
	now = now.Add(2 * time.Second)
	c.Heartbeat("w-chatty", nil) // triggers the sweep; w-silent is 4s silent

	st := c.Stats()
	if _, ok := st.Workers["w-silent"]; ok {
		t.Fatalf("silent worker not deregistered: %+v", st.Workers)
	}
	if _, ok := st.Workers["w-chatty"]; !ok {
		t.Fatal("heartbeating worker must survive the sweep")
	}
	if st.WorkerEpoch <= ep0 {
		t.Fatalf("expiry must advance the membership epoch: %d -> %d", ep0, st.WorkerEpoch)
	}
}
