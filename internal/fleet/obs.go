package fleet

import (
	"time"

	"napel/internal/httpd"
	"napel/internal/obs"
)

// fleetObs is the gate's observability surface on a shared internal/obs
// registry. Per-endpoint and per-replica series are pre-resolved at
// construction so the routing hot path touches only lock-free handles.
type fleetObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	start  time.Time

	gateRequests *httpd.RequestMetrics

	// Per-replica upstream handles live on the replica structs; the vecs
	// are kept to resolve them at construction.
	upstream *obs.CounterVec
	share    *obs.GaugeVec

	hedges      *obs.Counter
	hedgeWins   *obs.Counter
	failovers   *obs.Counter
	ready       *obs.Gauge
	rollouts    *obs.Counter
	ringChanges *obs.CounterVec
}

func newFleetObs(tracer *obs.Tracer, endpoints ...string) *fleetObs {
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, "napel-gate")
	o := &fleetObs{
		reg:    reg,
		tracer: tracer,
		start:  time.Now(),
		gateRequests: httpd.NewRequestMetrics(reg, "napel_fleet_gate",
			"Requests completed at the gate by endpoint and status class.",
			"Gate request latency by endpoint, upstream attempts included.", endpoints...),
	}
	o.upstream = reg.CounterVec("napel_fleet_requests_total",
		"Upstream attempts by replica and outcome (ok, client_error, error, canceled).",
		"replica", "outcome")
	o.share = reg.GaugeVec("napel_fleet_shard_share",
		"Fraction of the ring keyspace each ready replica owns (0 while unready).",
		"replica")
	o.hedges = reg.Counter("napel_fleet_hedges_total",
		"Hedge requests launched against a slow primary.")
	o.hedgeWins = reg.Counter("napel_fleet_hedge_wins_total",
		"Hedged requests answered by a non-primary replica first.")
	o.failovers = reg.Counter("napel_fleet_failovers_total",
		"Attempts re-routed to a ring successor after an upstream failure.")
	o.ready = reg.Gauge("napel_fleet_replicas_ready",
		"Replicas currently passing their /readyz probe.")
	o.rollouts = reg.Counter("napel_fleet_rolling_reloads_total",
		"Completed fleet-wide rolling reloads.")
	o.ringChanges = reg.CounterVec("napel_fleet_ring_changes_total",
		"Ring membership changes by kind (join, evict, readmit, expire, leave).",
		"change")
	return o
}
