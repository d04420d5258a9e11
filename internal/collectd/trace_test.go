package collectd

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"napel/internal/napel"
	"napel/internal/obs"
)

// TestWorkerLeaseTraceJoinsCoordinator runs one distributed collection
// unit end to end over real HTTP and asserts the cross-process trace
// shape: the worker's "worker.unit" span is the root, and the
// coordinator's lease-grant and completion handler spans — recorded in
// a different tracer, joined only via the traceparent header the worker
// injects — share its trace id and parent directly under it.
func TestWorkerLeaseTraceJoinsCoordinator(t *testing.T) {
	kernels := quickKernels(t, "atax")
	opts := quickOptions()

	coordTracer := obs.NewTracer(0, nil)
	c := NewCoordinator(Config{LeaseTTL: 500 * time.Millisecond, Tracer: coordTracer, Logf: t.Logf})
	mux := http.NewServeMux()
	RegisterAPI(mux, c)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	workerTracer := obs.NewTracer(0, nil)
	w, err := NewWorker(WorkerConfig{
		Coordinator:  srv.URL,
		ID:           "trace-worker",
		PollInterval: 10 * time.Millisecond,
		Seed:         11,
		Tracer:       workerTracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done })

	opts.Executor = c.Executor()
	if _, err := napel.Collect(kernels, opts); err != nil {
		t.Fatalf("distributed collect: %v", err)
	}

	units := []obs.SpanRecord{}
	for _, s := range workerTracer.Snapshot() {
		if s.Name == "worker.unit" {
			units = append(units, s)
		}
	}
	if len(units) == 0 {
		t.Fatal("worker recorded no worker.unit spans — idle polls must be discarded, executed leases kept")
	}

	coord := coordTracer.Snapshot()
	for _, u := range units {
		var lease, complete bool
		for _, s := range coord {
			if s.TraceID != u.TraceID || s.ParentID != u.SpanID {
				continue
			}
			switch s.Name {
			case "collectd.lease":
				lease = true
			case "collectd.complete":
				complete = true
			}
		}
		if !lease || !complete {
			t.Fatalf("unit trace %s: coordinator joined lease=%v complete=%v, want both under span %s",
				u.TraceID, lease, complete, u.SpanID)
		}
	}
}
