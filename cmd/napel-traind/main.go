// Command napel-traind is the training-side daemon of the NAPEL model
// lifecycle: it accepts training jobs over HTTP, drives the DoE
// collection + random-forest pipeline with crash-safe checkpoints,
// stores every trained model in a content-addressed store with full
// lineage, and promotes a candidate into serving only when it beats the
// incumbent on a held-out fold (the canary gate):
//
//	napel-traind -store ./models -addr :9091
//	curl -d '{"kernels":["atax","mvt"]}' http://localhost:9091/v1/jobs
//	napel-serve -model ./models/current-model.json -follow 2s
//
// Endpoints: POST/GET /v1/jobs, GET /v1/jobs/{id}, POST
// /v1/jobs/{id}/cancel, GET /v1/store, POST /v1/store/rollback, GET
// /healthz, GET /metrics (Prometheus text format).
//
// A SIGINT/SIGTERM checkpoints running jobs and exits; a killed daemon
// (even SIGKILL) resumes interrupted jobs from their last checkpoint on
// the next start, re-executing only unfinished (kernel, input) units.
// A second SIGINT forces immediate exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"napel/internal/collectd"
	"napel/internal/httpd"
	"napel/internal/lifecycle"
	"napel/internal/obs"
	"napel/internal/resilience/faultpoint"
)

func main() {
	addr := flag.String("addr", ":9091", "listen address for the admin API")
	storeDir := flag.String("store", "", "model store directory (required)")
	jobsDir := flag.String("jobs", "", "job state directory (default <store>/jobs)")
	concurrency := flag.Int("concurrency", 1, "training jobs run at once")
	gateTolerance := flag.Float64("gate-tolerance", 0, "promote when candidate holdout error <= incumbent error x tolerance (0 = default 1.05)")
	holdoutFrac := flag.Float64("holdout-frac", 0, "held-out fraction for the canary gate (0 = default 0.25)")
	checkpointEvery := flag.Duration("checkpoint-every", 2*time.Second, "min interval between collection checkpoints (0 = every unit)")
	maxRetries := flag.Int("max-retries", 0, "retries per job after a transient failure (0 = default 2, negative disables)")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "heartbeat budget for distributed collection leases (0 disables the worker coordinator)")
	collectJournal := flag.String("collect-journal", "", "append-only journal making distributed-collection state crash-durable: completed units are replayed from it after a restart instead of re-executed (empty = off)")
	workerExpiry := flag.Duration("worker-expiry", 0, "deregister workers silent for this long (0 = 4x lease-ttl)")
	drain := flag.Duration("drain-timeout", 30*time.Second, "job checkpoint + HTTP drain deadline on shutdown")
	traceOut := flag.String("trace-out", "", "append every completed span as one JSON line to this file (the /debug/traces ring is always on)")
	tracePush := flag.String("trace-push", "", "push completed spans in bounded batches to this napel-obsd base URL (empty = off)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed of the deterministic fault-injection plan")
	chaosSpec := flag.String("chaos-spec", "", "fault-injection plan, e.g. 'atomicfile.write:0.1:partial' (empty = chaos off)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionLine("napel-traind"))
		return
	}

	logger := log.New(os.Stderr, "napel-traind: ", log.LstdFlags)
	if *chaosSpec != "" {
		if err := faultpoint.Enable(*chaosSeed, *chaosSpec); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("chaos plan active (seed %d): %s", *chaosSeed, *chaosSpec)
	}
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "napel-traind: -store is required")
		flag.Usage()
		os.Exit(2)
	}
	if *jobsDir == "" {
		*jobsDir = filepath.Join(*storeDir, "jobs")
	}

	store, err := lifecycle.OpenStore(*storeDir)
	if err != nil {
		logger.Fatal(err)
	}
	mcfg := lifecycle.ManagerConfig{
		Store:           store,
		JobsDir:         *jobsDir,
		Concurrency:     *concurrency,
		GateTolerance:   *gateTolerance,
		HoldoutFrac:     *holdoutFrac,
		CheckpointEvery: *checkpointEvery,
		MaxRetries:      *maxRetries,
		Logf:            logger.Printf,
	}
	if *leaseTTL > 0 {
		ccfg := collectd.Config{
			LeaseTTL:     *leaseTTL,
			WorkerExpiry: *workerExpiry,
			Logf:         logger.Printf,
		}
		if *collectJournal != "" {
			j, err := collectd.OpenJournal(*collectJournal, logger.Printf)
			if err != nil {
				logger.Fatal(err)
			}
			defer j.Close()
			ccfg.Journal = j
		}
		mcfg.Coordinator = collectd.NewCoordinator(ccfg)
	} else if *collectJournal != "" {
		logger.Fatal("-collect-journal requires the worker coordinator (-lease-ttl > 0)")
	}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Fatal(err)
		}
		defer f.Close()
		mcfg.TraceSink = f
	}
	mgr, err := lifecycle.NewManager(mcfg)
	if err != nil {
		logger.Fatal(err)
	}
	if *tracePush != "" {
		p := obs.NewPusher(obs.PushConfig{URL: *tracePush, Process: "napel-traind"})
		defer p.Close()
		p.Register(mgr.Obs())
		mgr.Tracer().SetPusher(p)
	}

	// First signal: graceful stop (running jobs checkpoint and stay
	// resumable). Second signal: force exit with a non-zero status.
	ctx, cancel := context.WithCancel(context.Background())
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		logger.Printf("received %s, checkpointing and shutting down (send again to force exit)", sig)
		cancel()
		sig = <-sigCh
		logger.Printf("received second %s, forcing exit", sig)
		os.Exit(130)
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("store %s, jobs %s, serving admin API on %s", *storeDir, *jobsDir, ln.Addr())

	managed := make(chan struct{})
	go func() {
		defer close(managed)
		mgr.Run(ctx)
	}()
	if err := httpd.Serve(ctx, ln, lifecycle.NewAPIHandler(mgr), *drain, nil); err != nil {
		logger.Printf("http: %v", err)
		cancel()
	}
	<-managed
	logger.Printf("jobs checkpointed, exiting")
}
