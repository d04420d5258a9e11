package collectd

import "napel/internal/obs"

// coordObs is the coordinator's observability surface: the
// napel_collectd_* handles on Config.Registry, or on a private registry
// when none is configured, so they always exist. They are the
// coordinator's only event counts; Stats reads them.
type coordObs struct {
	leases     *obs.Counter
	expired    *obs.Counter
	requeues   *obs.Counter
	enqueues   *obs.Counter
	unmatched  *obs.Counter
	jRecords   *obs.Counter
	jReplays   *obs.Counter
	completes  map[string]*obs.Counter
	workerEvts map[string]*obs.Counter
}

// workerChanges enumerates the membership transitions the worker
// registry reports (member.Event.Change values).
var workerChanges = [...]string{"join", "evict", "readmit", "expire", "leave"}

// completeResults enumerates the /v1/complete outcomes the coordinator
// distinguishes.
var completeResults = [...]string{"ok", "error", "corrupt", "invalid", "unknown", "abandoned"}

// newCoordObs registers the coordinator's series, the live queue-depth
// gauges over c among them, on reg (a private registry when nil).
func newCoordObs(reg *obs.Registry, c *Coordinator) *coordObs {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o := &coordObs{
		leases: reg.Counter("napel_collectd_leases_total",
			"Units leased to workers."),
		expired: reg.Counter("napel_collectd_lease_expired_total",
			"Leases that missed their heartbeat deadline and were revoked."),
		requeues: reg.Counter("napel_collectd_requeues_total",
			"Units put back on the queue after lease expiry or a corrupt payload."),
		enqueues: reg.Counter("napel_collectd_units_total",
			"Units offered to the worker fleet."),
		unmatched: reg.Counter("napel_collectd_lease_unmatched_total",
			"Lease polls that found pending work but none the worker's capability tags can execute."),
		jRecords: reg.Counter("napel_collectd_journal_records_total",
			"Records appended to the collection journal."),
		jReplays: reg.Counter("napel_collectd_journal_replayed_total",
			"Units answered from journaled completions instead of worker execution."),
		completes:  make(map[string]*obs.Counter, len(completeResults)),
		workerEvts: make(map[string]*obs.Counter, len(workerChanges)),
	}
	cv := reg.CounterVec("napel_collectd_completes_total",
		"Lease completions by outcome.", "result")
	for _, res := range completeResults {
		o.completes[res] = cv.With(res)
	}
	wv := reg.CounterVec("napel_collectd_worker_changes_total",
		"Worker membership transitions.", "change")
	for _, ch := range workerChanges {
		o.workerEvts[ch] = wv.With(ch)
	}
	reg.GaugeFunc("napel_collectd_pending",
		"Units waiting for a worker lease.",
		func() float64 {
			p, _ := c.queueDepths()
			return float64(p)
		})
	reg.GaugeFunc("napel_collectd_leased",
		"Units currently leased to workers.",
		func() float64 {
			_, l := c.queueDepths()
			return float64(l)
		})
	reg.GaugeFunc("napel_collectd_workers",
		"Workers currently registered (auto-registered at lease time, expired on silence).",
		func() float64 {
			return float64(len(c.members.Alive()))
		})
	return o
}

func (o *coordObs) completed(result string) {
	if ctr, ok := o.completes[result]; ok {
		ctr.Inc()
	}
}

func (o *coordObs) workerChange(change string) {
	if ctr, ok := o.workerEvts[change]; ok {
		ctr.Inc()
	}
}

// workerObs instruments one napel-worker process.
type workerObs struct {
	leases    *obs.Counter
	executed  *obs.Counter
	failed    *obs.Counter
	lost      *obs.Counter
	idle      *obs.Counter
	reconnect *obs.Counter
}

func newWorkerObs(reg *obs.Registry) *workerObs {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &workerObs{
		leases: reg.Counter("napel_worker_leases_total",
			"Leases acquired from the coordinator."),
		executed: reg.Counter("napel_worker_units_executed_total",
			"Units executed to completion and reported back."),
		failed: reg.Counter("napel_worker_unit_errors_total",
			"Unit executions that ended in an error."),
		lost: reg.Counter("napel_worker_leases_lost_total",
			"Leases revoked under us (heartbeat reported unknown)."),
		idle: reg.Counter("napel_worker_idle_polls_total",
			"Lease polls that found no pending work."),
		reconnect: reg.Counter("napel_worker_reconnect_waits_total",
			"Backoff waits spent with the coordinator unreachable."),
	}
}

func (o *workerObs) unitDone(err error) {
	if err != nil {
		o.failed.Inc()
	} else {
		o.executed.Inc()
	}
}

// activeObs instruments the active-learning scheduler.
type activeObs struct {
	rounds      *obs.Counter
	selected    *obs.Counter
	maxUncert   *obs.Gauge
	meanUncert  *obs.Gauge
	lastMRE     *obs.Gauge
	poolRemains *obs.Gauge
}

func newActiveObs(reg *obs.Registry) *activeObs {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &activeObs{
		rounds: reg.Counter("napel_collectd_rounds_total",
			"Active-learning rounds completed."),
		selected: reg.Counter("napel_collectd_selected_total",
			"Units selected for simulation by the active learner."),
		maxUncert: reg.Gauge("napel_collectd_uncertainty_max",
			"Highest candidate ensemble-disagreement score of the last round."),
		meanUncert: reg.Gauge("napel_collectd_uncertainty_mean",
			"Mean candidate ensemble-disagreement score of the last round."),
		lastMRE: reg.Gauge("napel_collectd_holdout_mre",
			"Combined holdout MRE after the last round."),
		poolRemains: reg.Gauge("napel_collectd_pool_remaining",
			"Candidate units not yet simulated."),
	}
}

func (o *activeObs) round(selected int, meanU, maxU, mre float64, remaining int) {
	o.rounds.Inc()
	o.selected.Add(uint64(selected))
	o.meanUncert.Set(meanU)
	o.maxUncert.Set(maxU)
	o.lastMRE.Set(mre)
	o.poolRemains.Set(float64(remaining))
}
