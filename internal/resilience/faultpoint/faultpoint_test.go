package faultpoint

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"noprob",
		"p:1.5",
		"p:-0.1",
		"p:abc",
		":0.5",
		"p:0.5:bogus",
		"p:0.5:latency=xyz",
		"p:0.5:latency=1ms:extra",
		"p:NaN",
		"p:nan",
		"p:+Inf",
	}
	for _, spec := range bad {
		if _, err := ParsePlan(1, spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted", spec)
		}
	}
	good := []string{
		"", "p:0.5", "p:1", "p:0", "a.b:0.2,c.*:1:latency=5ms", "w:1:partial", " p:0.5 , q:1 ",
	}
	for _, spec := range good {
		if _, err := ParsePlan(1, spec); err != nil {
			t.Errorf("ParsePlan(%q): %v", spec, err)
		}
	}
}

func TestNoPlanIsNoOp(t *testing.T) {
	Disable()
	if Active() {
		t.Fatal("Active with no plan")
	}
	if err := Inject(context.Background(), "any.point"); err != nil {
		t.Fatalf("Inject with no plan: %v", err)
	}
	var buf bytes.Buffer
	if w := WrapWriter("any.point", &buf); w != &buf {
		t.Fatal("WrapWriter with no plan did not return the writer unchanged")
	}
	if TotalInjected() != 0 || Count("any.point") != 0 {
		t.Fatal("counters nonzero with no plan")
	}
}

func TestInjectErrorAndCounts(t *testing.T) {
	t.Cleanup(Disable)
	if err := Enable(42, "io.write:1"); err != nil {
		t.Fatal(err)
	}
	err := Inject(context.Background(), "io.write")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "io.write") {
		t.Fatalf("error %q does not name the point", err)
	}
	if err := Inject(context.Background(), "io.read"); err != nil {
		t.Fatalf("unmatched point fired: %v", err)
	}
	if TotalInjected() != 1 || Count("io.write") != 1 || Count("io.read") != 0 {
		t.Fatalf("counts: total=%d write=%d read=%d", TotalInjected(), Count("io.write"), Count("io.read"))
	}
}

func TestPrefixMatchAndDeterminism(t *testing.T) {
	t.Cleanup(Disable)
	run := func(seed uint64) []bool {
		if err := Enable(seed, "atomicfile.*:0.3"); err != nil {
			t.Fatal(err)
		}
		fired := make([]bool, 40)
		for i := range fired {
			fired[i] = Inject(nil, "atomicfile.rename") != nil
		}
		return fired
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d", i)
		}
	}
	hits := 0
	for _, f := range a {
		if f {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("p=0.3 over %d arrivals fired %d times", len(a), hits)
	}
	// The prefix pattern must not match unrelated points.
	if err := Inject(nil, "serve.predict"); err != nil {
		t.Fatalf("unrelated point fired: %v", err)
	}
}

func TestLatencyMode(t *testing.T) {
	t.Cleanup(Disable)
	if err := Enable(1, "slow.op:1:latency=30ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Inject(context.Background(), "slow.op"); err != nil {
		t.Fatalf("latency mode returned error: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("latency injection slept only %s", d)
	}
	// A done context aborts the sleep with ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Inject(ctx, "slow.op"); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled latency injection: %v", err)
	}
}

func TestWrapWriterTearsWrites(t *testing.T) {
	t.Cleanup(Disable)
	if err := Enable(3, "blob.write:1:partial"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := WrapWriter("blob.write", &buf)
	payload := []byte("0123456789abcdef")
	n, err := w.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write err = %v", err)
	}
	if n != len(payload)/2 || buf.Len() != len(payload)/2 {
		t.Fatalf("torn write leaked %d bytes (reported %d), want %d", buf.Len(), n, len(payload)/2)
	}
	// The stream stays broken: later writes leak nothing.
	if n, err := w.Write(payload); err == nil || n != 0 {
		t.Fatalf("second write on torn stream: n=%d err=%v", n, err)
	}
	if buf.Len() != len(payload)/2 {
		t.Fatal("broken stream leaked more bytes")
	}

	// Error mode fails the first write without leaking anything.
	if err := Enable(3, "blob.write:1"); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	w = WrapWriter("blob.write", &buf)
	if n, err := w.Write(payload); err == nil || n != 0 || buf.Len() != 0 {
		t.Fatalf("error-mode write: n=%d len=%d err=%v", n, buf.Len(), err)
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	t.Cleanup(Disable)
	if err := Enable(5, "a.b:1:latency=0s,a.*:1"); err != nil {
		t.Fatal(err)
	}
	// The exact rule (latency, 0s) matches first, so no error.
	if err := Inject(context.Background(), "a.b"); err != nil {
		t.Fatalf("first rule not preferred: %v", err)
	}
	// A sibling point falls through to the prefix error rule.
	if err := Inject(context.Background(), "a.c"); !errors.Is(err, ErrInjected) {
		t.Fatalf("prefix rule not applied: %v", err)
	}
}

// FuzzParsePlan: no spec panics ParsePlan, every rule it accepts has a
// probability in [0, 1] and a latency of at least 0, and two plans from
// the same seed and spec decide identically over the same arrivals.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, spec string) {
		p, err := ParsePlan(seed, spec)
		if err != nil {
			return
		}
		names := []string{"serve.predict", "serve.reload", "fleet.forward", "store.blob", "atomicfile.write", ""}
		for _, r := range p.rules {
			if !(r.prob >= 0 && r.prob <= 1) || r.latency < 0 {
				t.Fatalf("ParsePlan(%q) accepted %+v", spec, r)
			}
			names = append(names, r.pattern, r.pattern+".x")
		}
		q, err := ParsePlan(seed, spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q) accepted once, then failed: %v", spec, err)
		}
		for i := 0; i < 4*len(names); i++ {
			name := names[i%len(names)]
			r1, fired1 := p.decide(name)
			r2, fired2 := q.decide(name)
			if fired1 != fired2 || r1 != r2 {
				t.Fatalf("arrival %d at %q: plans from one seed and spec %q decided %v %+v and %v %+v",
					i, name, spec, fired1, r1, fired2, r2)
			}
		}
	})
}
