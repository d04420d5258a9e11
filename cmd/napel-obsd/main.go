// Command napel-obsd is the fleet observability aggregation plane: it
// pull-scrapes /metrics from every process named in -targets and/or a
// -targets-file (one job=URL per line, re-read periodically so fleet
// churn needs no restart) and re-exports the merged series under
// job/instance labels on its own /metrics, accepts span batches pushed by processes started with
// -trace-push, and serves /debug/fleet — cross-process trace trees
// (one loadgen request or one collection unit as a single tree spanning
// loadgen, gate, serve, and traind spans) plus SLO burn rates computed
// from the merged serve series.
//
//	napel-serve -model model.json -addr :9191 -trace-push http://127.0.0.1:9095 &
//	napel-gate  -addr :9090 -replicas http://127.0.0.1:9191 -trace-push http://127.0.0.1:9095 &
//	napel-obsd  -addr :9095 -targets gate=http://127.0.0.1:9090,serve=http://127.0.0.1:9191
//	curl http://localhost:9095/metrics      # napel_fleet_* merged series
//	curl http://localhost:9095/debug/fleet  # trace trees + SLO burn
//
// Endpoints: GET /metrics, GET /debug/fleet, POST /v1/spans,
// GET /healthz, GET /debug/pprof/..., GET /debug/runtime.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"napel/internal/httpd"
	"napel/internal/obs"
	"napel/internal/obsd"
)

func main() {
	addr := flag.String("addr", ":9095", "listen address")
	targets := flag.String("targets", "", "comma-separated scrape targets, each job=http://host:port or a bare URL")
	targetsFile := flag.String("targets-file", "", "file of scrape targets, one job=URL per line (# comments), re-read every -targets-reload so fleet churn needs no restart")
	targetsReload := flag.Duration("targets-reload", 0, "re-read period for -targets-file (0 = default 10s)")
	scrapeInterval := flag.Duration("scrape-interval", 0, "time between scrape rounds (0 = default 2s)")
	spanCap := flag.Int("span-cap", 0, "max retained pushed spans, oldest evicted (0 = default 16384)")
	sloAvail := flag.Float64("slo-availability", 0, "availability objective for the burn-rate view (0 = default 0.999)")
	sloLatency := flag.Float64("slo-latency", 0, "latency SLO threshold in seconds; should match a serve histogram bucket bound (0 = default 0.25)")
	sloLatencyObjective := flag.Float64("slo-latency-objective", 0, "fraction of requests that should land under the latency threshold (0 = default 0.99)")
	drain := flag.Duration("drain-timeout", 5*time.Second, "in-flight drain deadline on shutdown")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionLine("napel-obsd"))
		return
	}

	if *targets == "" && *targetsFile == "" {
		fmt.Fprintln(os.Stderr, "napel-obsd: -targets or -targets-file is required")
		flag.Usage()
		os.Exit(2)
	}
	var parsed []obsd.Target
	if *targets != "" {
		var err error
		parsed, err = obsd.ParseTargets(*targets)
		if err != nil {
			fmt.Fprintf(os.Stderr, "napel-obsd: %v\n", err)
			os.Exit(2)
		}
	}

	a, err := obsd.New(obsd.Config{
		Targets:             parsed,
		TargetsFile:         *targetsFile,
		TargetsReload:       *targetsReload,
		ScrapeInterval:      *scrapeInterval,
		SpanCap:             *spanCap,
		SLOAvailability:     *sloAvail,
		SLOLatencySeconds:   *sloLatency,
		SLOLatencyObjective: *sloLatencyObjective,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "napel-obsd: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "napel-obsd: %v\n", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go a.Run(ctx)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "napel-obsd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "napel-obsd: scraping %d targets, listening on %s\n", a.TargetCount(), *addr)
	if err := httpd.Serve(ctx, ln, a.Handler(), *drain, nil); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "napel-obsd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "napel-obsd: exiting")
}
