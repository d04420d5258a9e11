// Command napel-gate fronts a fleet of napel-serve replicas: it
// consistent-hashes every request on its own bytes so each replica's
// response cache sees a disjoint slice of the keyspace, turning N small
// LRUs into one large one. Batched predicts are split per item, fanned
// out per shard, and their answers spliced back in request order, all
// without decoding a request or an answer; single predicts are hedged
// against a slow primary and failed over along the ring when a replica
// misbehaves, with a circuit breaker per replica.
//
//	napel-serve -model model.json -addr :9191 &
//	napel-serve -model model.json -addr :9192 &
//	napel-gate -addr :9090 -replicas http://127.0.0.1:9191,http://127.0.0.1:9192
//	curl -d @req.json http://localhost:9090/v1/predict
//
// Endpoints: POST /v1/predict and POST /v1/suitability (same wire
// contract as napel-serve — responses are byte-identical to a direct
// replica hit), GET /v1/fleet (replica status, membership states,
// breaker states, ring shares, epoch), POST /v1/fleet/join (runtime
// replica admission — napel-serve -join announces here), POST
// /v1/fleet/reload (rolling hot-install of the promoted model, one
// replica at a time, gated on each replica's /readyz), GET /healthz,
// GET /readyz, GET /metrics.
//
// Membership is self-healing: -evict-after consecutive failed /readyz
// probes evict a replica from the ring (a replica reporting
// ready:false is evicted immediately), and a later passing probe
// readmits it. Every change advances the ring epoch reported by
// /readyz and the napel_fleet_ring_epoch gauge. -replicas may be
// empty: a gate can start with no fleet and grow one from joins.
//
// -chaos-seed/-chaos-spec install a deterministic fault-injection plan
// (point 'fleet.forward' tears gate->replica calls) for resilience
// testing.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"napel/internal/fleet"
	"napel/internal/obs"
	"napel/internal/resilience/faultpoint"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	replicas := flag.String("replicas", "", "comma-separated napel-serve base URLs seeding the fleet (empty = replicas self-announce via POST /v1/fleet/join)")
	evictAfter := flag.Int("evict-after", 0, "consecutive failed /readyz probes that evict a replica from the ring (0 = default 3)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per replica on the hash ring (0 = default 128)")
	hedgeAfter := flag.Duration("hedge-after", 0, "hedge a single predict to the next replica after this wait (0 = default 30ms, negative disables)")
	healthInterval := flag.Duration("health-interval", 0, "replica /readyz probe period (0 = default 500ms)")
	budget := flag.Duration("budget", 0, "per-request deadline budget, split across failover attempts (0 = none)")
	maxBatch := flag.Int("max-batch", 0, "max items per batched predict (0 = default 256)")
	maxBody := flag.Int64("max-body-bytes", 0, "max request body bytes (0 = default 8 MiB)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive failures that trip a replica breaker (0 = default 3)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long a tripped replica is bypassed (0 = default 2s)")
	drain := flag.Duration("drain-timeout", 10*time.Second, "in-flight drain deadline on shutdown")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed of the deterministic fault-injection plan")
	chaosSpec := flag.String("chaos-spec", "", "fault-injection plan, e.g. 'fleet.forward:0.1' (empty = chaos off)")
	traceOut := flag.String("trace-out", "", "append every completed span as one JSON line to this file")
	tracePush := flag.String("trace-push", "", "push completed spans in bounded batches to this napel-obsd base URL (empty = off)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionLine("napel-gate"))
		return
	}

	logger := log.New(os.Stderr, "napel-gate: ", log.LstdFlags)
	var urls []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			urls = append(urls, r)
		}
	}

	if *chaosSpec != "" {
		if err := faultpoint.Enable(*chaosSeed, *chaosSpec); err != nil {
			fmt.Fprintf(os.Stderr, "napel-gate: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "napel-gate: chaos plan active (seed %d): %s\n", *chaosSeed, *chaosSpec)
	}

	cfg := fleet.Config{
		Replicas:         urls,
		EvictThreshold:   *evictAfter,
		Logf:             logger.Printf,
		VNodes:           *vnodes,
		HedgeAfter:       *hedgeAfter,
		HealthInterval:   *healthInterval,
		Budget:           *budget,
		MaxBatch:         *maxBatch,
		MaxBodyBytes:     *maxBody,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		DrainTimeout:     *drain,
	}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "napel-gate: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.TraceSink = f
	}
	g, err := fleet.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "napel-gate: %v\n", err)
		os.Exit(1)
	}
	if *tracePush != "" {
		p := obs.NewPusher(obs.PushConfig{URL: *tracePush, Process: "napel-gate"})
		defer p.Close()
		p.Register(g.Obs())
		g.Tracer().SetPusher(p)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(urls) == 0 {
		fmt.Fprintf(os.Stderr, "napel-gate: no seed replicas; waiting for POST /v1/fleet/join, listening on %s\n", *addr)
	} else {
		fmt.Fprintf(os.Stderr, "napel-gate: fronting %d replicas, listening on %s\n", len(urls), *addr)
	}
	if err := g.Run(ctx, *addr); err != nil {
		fmt.Fprintf(os.Stderr, "napel-gate: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "napel-gate: drained in-flight requests, exiting")
}
