package napel

import (
	"bytes"
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"napel/internal/obs"
)

// TestEngineObservability runs one instrumented collection and checks
// that the engine's metrics and spans describe it: one engine.unit span
// per executed unit (each with profile/record/simulate children), unit
// counters matching the dataset, and the worker-utilization gauge in
// the exposition (back at zero once the run is over).
func TestEngineObservability(t *testing.T) {
	opts := quickOptions()
	opts.Workers = 4
	opts.Metrics = obs.NewRegistry()
	kernels := quickKernels(t, "atax")

	tr := obs.NewTracer(0, nil)
	ctx := obs.WithTracer(context.Background(), tr)
	td, err := CollectResumeContext(ctx, kernels, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	units := len(td.Profiles)
	if units == 0 {
		t.Fatal("no units collected")
	}

	spans := map[string]int{}
	for _, rec := range tr.Snapshot() {
		spans[rec.Name]++
	}
	if spans["engine"] != 1 {
		t.Fatalf("want 1 engine span, got %d (all: %v)", spans["engine"], spans)
	}
	if spans["engine.unit"] != units {
		t.Fatalf("want %d engine.unit spans (one per unit), got %d", units, spans["engine.unit"])
	}
	for _, stage := range []string{"profile", "record", "simulate"} {
		if spans[stage] != units {
			t.Fatalf("want %d %q spans, got %d", units, stage, spans[stage])
		}
	}

	var b strings.Builder
	if err := opts.Metrics.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE napel_engine_worker_utilization gauge",
		"napel_engine_worker_utilization 0",
		"napel_engine_workers_busy 0",
		"napel_engine_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	doneLine := "napel_engine_units_done_total"
	var gotDone string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, doneLine+" ") {
			gotDone = line
		}
	}
	if want := doneLine + " " + strconv.Itoa(units); gotDone != want {
		t.Fatalf("units counter %q, want %q", gotDone, want)
	}
	for _, stage := range []string{"profile", "record", "simulate"} {
		line := `napel_engine_stage_seconds_count{stage="` + stage + `"} ` + strconv.Itoa(units)
		if !strings.Contains(text, line) {
			t.Fatalf("exposition missing %q:\n%s", line, text)
		}
	}
}

// TestEngineResumeRestoredMetrics: a resumed run counts restored units
// separately and re-executes nothing already checkpointed.
func TestEngineResumeRestoredMetrics(t *testing.T) {
	opts := quickOptions()
	opts.Workers = 2
	kernels := quickKernels(t, "atax")

	full, err := CollectResumeContext(context.Background(), kernels, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	opts.Metrics = obs.NewRegistry()
	td, err := CollectResumeContext(context.Background(), kernels, opts, &CollectCheckpoint{Prior: full})
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Samples) != len(full.Samples) {
		t.Fatalf("resumed run has %d samples, want %d", len(td.Samples), len(full.Samples))
	}

	var b strings.Builder
	opts.Metrics.WriteText(&b)
	text := b.String()
	if !strings.Contains(text, "napel_engine_units_done_total 0") {
		t.Fatalf("fully restored run executed units:\n%s", text)
	}
	if strings.Contains(text, "napel_engine_units_restored_total 0") {
		t.Fatalf("restored counter not incremented:\n%s", text)
	}
}

// TestMetricsNeverChangeCollectedData: whether the engine reports to a
// caller's registry or to its private one, Collect saves the same bytes
// and ExecuteUnit builds the same payload.
func TestMetricsNeverChangeCollectedData(t *testing.T) {
	opts := quickOptions()
	opts.Workers = 2
	kernels := quickKernels(t, "atax")
	save := func(o Options) []byte {
		t.Helper()
		td, err := Collect(kernels, o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveTrainingData(&buf, td); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	instrumented := opts
	instrumented.Metrics = obs.NewRegistry()
	if !bytes.Equal(save(opts), save(instrumented)) {
		t.Fatal("Collect with Options.Metrics saved different bytes than without")
	}

	specs, err := PlanUnits(kernels, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock fields aside, a payload is a pure function of its spec.
	execute := func(reg *obs.Registry) *UnitPayload {
		t.Helper()
		p, err := ExecuteUnit(context.Background(), specs[0], reg)
		if err != nil {
			t.Fatal(err)
		}
		p.ProfileTime, p.SimTime = 0, 0
		for i := range p.Samples {
			p.Samples[i].SimTime = 0
		}
		return p
	}
	if a, b := execute(nil), execute(obs.NewRegistry()); !reflect.DeepEqual(a, b) {
		t.Fatalf("ExecuteUnit payload with a nil registry differs from one with a registry:\n%+v\n%+v", a, b)
	}
}
