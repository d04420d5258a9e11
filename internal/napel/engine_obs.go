package napel

import (
	"napel/internal/obs"
)

// engineBuckets grids unit and stage durations: proxy-scale units run
// for milliseconds to tens of seconds.
var engineBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// engineObs is the collection engine's observability surface on a
// caller-supplied registry (Options.Metrics). A nil engineObs — no
// registry configured — makes every method a no-op, so the engine pays
// nothing when uninstrumented. Gauges describe the in-flight run;
// successive Collect calls on the same registry rebind the utilization
// function to the newest run (Func re-registration replaces the
// closure).
type engineObs struct {
	workers     *obs.Gauge
	busy        *obs.Gauge
	queue       *obs.Gauge
	unitSec     *obs.Histogram
	stage       map[string]*obs.Histogram
	ckpSec      *obs.Histogram
	done        *obs.Counter
	restored    *obs.Counter
	failed      *obs.Counter
	retries     *obs.Counter
	quarantined *obs.Counter
}

// engineStages are the phases of one collection unit, matching the
// child spans runCollectUnit emits.
var engineStages = [...]string{"profile", "record", "simulate"}

func newEngineObs(reg *obs.Registry) *engineObs {
	if reg == nil {
		return nil
	}
	o := &engineObs{
		workers: reg.Gauge("napel_engine_workers",
			"Workers in the current collection pool."),
		busy: reg.Gauge("napel_engine_workers_busy",
			"Workers currently executing a unit."),
		queue: reg.Gauge("napel_engine_queue_depth",
			"Units planned but not yet started."),
		unitSec: reg.Histogram("napel_engine_unit_seconds",
			"Wall-clock time of one executed (kernel, input) unit.", engineBuckets),
		stage: make(map[string]*obs.Histogram, len(engineStages)),
		ckpSec: reg.Histogram("napel_engine_checkpoint_seconds",
			"Time spent inside the caller's per-unit checkpoint hook.", nil),
		done: reg.Counter("napel_engine_units_done_total",
			"Units executed to completion."),
		restored: reg.Counter("napel_engine_units_restored_total",
			"Units restored from a resume checkpoint instead of executed."),
		failed: reg.Counter("napel_engine_units_failed_total",
			"Units that returned a hard error."),
		retries: reg.Counter("napel_engine_unit_retries_total",
			"Unit re-executions after a failed attempt."),
		quarantined: reg.Counter("napel_engine_units_quarantined_total",
			"Units excluded from the dataset after exhausting their retries."),
	}
	sv := reg.HistogramVec("napel_engine_stage_seconds",
		"Per-stage unit latency: profiling, trace recording, simulation.",
		engineBuckets, "stage")
	for _, s := range engineStages {
		o.stage[s] = sv.With(s)
	}
	reg.GaugeFunc("napel_engine_worker_utilization",
		"Busy workers as a fraction of the pool; 0 when idle.",
		func() float64 {
			w := o.workers.Value()
			if w <= 0 {
				return 0
			}
			return o.busy.Value() / w
		})
	return o
}

func (o *engineObs) startRun(workers, queued, restored int) {
	if o == nil {
		return
	}
	o.workers.Set(float64(workers))
	o.busy.Set(0)
	o.queue.Set(float64(queued))
	o.restored.Add(uint64(restored))
}

func (o *engineObs) endRun() {
	if o == nil {
		return
	}
	o.workers.Set(0)
	o.busy.Set(0)
	o.queue.Set(0)
}

func (o *engineObs) unitStart() {
	if o == nil {
		return
	}
	o.queue.Dec()
	o.busy.Inc()
}

// unitEnd closes one executed unit. A unit that was cancelled mid-way
// counts neither as done nor failed.
func (o *engineObs) unitEnd(seconds float64, done bool, err error) {
	if o == nil {
		return
	}
	o.busy.Dec()
	o.unitSec.Observe(seconds)
	switch {
	case err != nil:
		o.failed.Inc()
	case done:
		o.done.Inc()
	}
}

func (o *engineObs) unitRetry() {
	if o == nil {
		return
	}
	o.retries.Inc()
}

func (o *engineObs) unitQuarantined() {
	if o == nil {
		return
	}
	o.quarantined.Inc()
}

func (o *engineObs) observeStage(name string, seconds float64) {
	if o == nil {
		return
	}
	if h, ok := o.stage[name]; ok {
		h.Observe(seconds)
	}
}

func (o *engineObs) observeCheckpoint(seconds float64) {
	if o == nil {
		return
	}
	o.ckpSec.Observe(seconds)
}
