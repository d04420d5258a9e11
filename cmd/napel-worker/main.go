// Command napel-worker is the remote execution half of distributed DoE
// collection: it polls a napel-traind coordinator for (kernel, input)
// unit leases, executes each unit with the in-process reference
// pipeline (profile → trace recording → one simulation per training
// architecture), and reports the payload back under a content hash,
// heartbeating while it works:
//
//	napel-traind -store ./models -addr :9091
//	napel-worker -coordinator http://trainhost:9091
//	napel-worker -coordinator http://trainhost:9091   # more = faster
//
// Workers are stateless and disposable: a killed worker's leases expire
// at the coordinator and requeue onto the survivors, and the assembled
// dataset is byte-identical to a single-machine run no matter how many
// workers served it or how many died. Add workers for throughput, kill
// them freely.
//
// -addr serves GET /metrics and /healthz for scraping; -chaos-spec
// installs a deterministic fault plan (collectd.lease, collectd.complete,
// collectd.payload) for protocol-resilience drills.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"napel/internal/collectd"
	"napel/internal/httpd"
	"napel/internal/obs"
	"napel/internal/resilience/faultpoint"
)

func main() {
	coordinator := flag.String("coordinator", "", "coordinator base URL, e.g. http://trainhost:9091 (required)")
	id := flag.String("id", "", "worker id reported in leases (default host-pid)")
	tags := flag.String("tags", "", "comma-separated capability tags advertised at lease time (e.g. 'hmc,x86'); the coordinator only assigns units whose required tags are all present")
	poll := flag.Duration("poll", 500*time.Millisecond, "idle wait between lease polls")
	reconnectMax := flag.Duration("reconnect-max", 5*time.Second, "cap on the jittered backoff between polls while the coordinator is unreachable")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request protocol timeout")
	seed := flag.Uint64("seed", 1, "retry-jitter seed")
	addr := flag.String("addr", "", "optional listen address for /metrics and /healthz")
	tracePush := flag.String("trace-push", "", "push completed spans in bounded batches to this napel-obsd base URL (empty = off)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed of the deterministic fault-injection plan")
	chaosSpec := flag.String("chaos-spec", "", "fault-injection plan, e.g. 'collectd.complete:0.2' (empty = chaos off)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionLine("napel-worker"))
		return
	}
	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "napel-worker: -coordinator is required")
		flag.Usage()
		os.Exit(2)
	}
	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	logger := log.New(os.Stderr, "napel-worker: ", log.LstdFlags)
	if *chaosSpec != "" {
		if err := faultpoint.Enable(*chaosSeed, *chaosSpec); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("chaos plan active (seed %d): %s", *chaosSeed, *chaosSpec)
	}

	reg := obs.NewRegistry()
	// The worker's tracer records one "worker.unit" span per executed
	// lease; its identity rides every protocol call so the coordinator's
	// handler spans join the same trace.
	tracer := obs.NewTracer(0, nil)
	w, err := collectd.NewWorker(collectd.WorkerConfig{
		Coordinator:    *coordinator,
		ID:             *id,
		Tags:           splitTags(*tags),
		PollInterval:   *poll,
		ReconnectMax:   *reconnectMax,
		RequestTimeout: *reqTimeout,
		Seed:           *seed,
		Registry:       reg,
		Tracer:         tracer,
		Logf:           logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}
	if *tracePush != "" {
		p := obs.NewPusher(obs.PushConfig{URL: *tracePush, Process: "napel-worker"})
		defer p.Close()
		p.Register(reg)
		tracer.SetPusher(p)
	}

	ctx, cancel := context.WithCancel(context.Background())
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		logger.Printf("received %s, finishing current unit and exiting (send again to force)", sig)
		cancel()
		sig = <-sigCh
		logger.Printf("received second %s, forcing exit", sig)
		os.Exit(130)
	}()

	// The metrics listener outlives the first signal: it answers until
	// the worker has finished its current unit, then drains.
	stopMetrics := func() {}
	if *addr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
			httpd.WriteJSON(rw, http.StatusOK, map[string]string{"status": "ok", "worker": *id})
		})
		mux.Handle("GET /metrics", reg.Handler())
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("serving metrics on %s", ln.Addr())
		metricsCtx, cancelMetrics := context.WithCancel(context.Background())
		served := make(chan error, 1)
		go func() { served <- httpd.Serve(metricsCtx, ln, mux, 5*time.Second, nil) }()
		stopMetrics = func() {
			cancelMetrics()
			if err := <-served; err != nil {
				logger.Printf("metrics: %v", err)
			}
		}
	}

	logger.Printf("worker %s starting against %s", *id, *coordinator)
	w.Run(ctx)
	stopMetrics()
	logger.Printf("worker %s stopped", *id)
}

// splitTags parses the -tags flag: comma-separated, blanks dropped.
func splitTags(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}
