// Command napel-serve exposes trained NAPEL predictors over HTTP so
// profiles collected anywhere (see 'napel export-profile') can be turned
// into performance and energy estimates without a simulator in the loop:
//
//	napel train -out model.json
//	napel-serve -model model.json -addr :9090
//	curl -d @req.json http://localhost:9090/v1/predict
//
// Endpoints: POST /v1/predict (single or batched), POST /v1/suitability
// (host-vs-NMC offload verdict), GET /v1/models, POST /v1/models/reload,
// GET /healthz (liveness), GET /readyz (readiness: 200 only while a
// model is installed and the server is not draining), GET /metrics
// (Prometheus text format).
//
// -chaos-seed/-chaos-spec install a deterministic fault-injection plan
// (see internal/resilience/faultpoint) for resilience testing; -lazy
// starts the server before any model loads, serving 503 from /readyz
// until -follow installs one.
//
// SIGINT/SIGTERM starts a graceful drain: new requests get 503 while
// in-flight ones finish under -drain-timeout.
//
// With -follow, the server polls its model sources and hot-installs any
// content change — point -model at a napel-traind store's
// current-model.json and promotions go live without a restart:
//
//	napel-serve -model ./models/current-model.json -follow 2s
//
// -join announces the replica to a napel-gate (POST /v1/fleet/join,
// re-announced every -join-interval) so a fleet can grow without
// restarting the gate; -advertise overrides the URL the gate probes
// when -addr alone is not reachable from the gate's host:
//
//	napel-serve -model model.json -addr :9191 -join http://gatehost:9090
//
// -model-store replaces the shared filesystem with napel-traind's store
// HTTP API: the server pulls the promoted lineage over the wire,
// sha256-verifies every blob against its content address, and (with
// -follow) polls the store so fleet replicas on other machines track
// promotions too:
//
//	napel-serve -model-store http://traind:8080 -follow 2s -lazy
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"napel/internal/obs"
	"napel/internal/resilience/faultpoint"
	"napel/internal/serve"
)

// modelFlags accumulates repeated -model flags: either "name=path" or a
// bare "path" registered under the default model name.
type modelFlags map[string]string

func (m modelFlags) String() string {
	parts := make([]string, 0, len(m))
	for name, path := range m {
		parts = append(parts, name+"="+path)
	}
	return strings.Join(parts, ",")
}

func (m modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok {
		name, path = serve.DefaultModelName, v
	}
	if name == "" || path == "" {
		return fmt.Errorf("want [name=]path, got %q", v)
	}
	if _, dup := m[name]; dup {
		return fmt.Errorf("model %q given twice", name)
	}
	m[name] = path
	return nil
}

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	models := modelFlags{}
	flag.Var(models, "model", "predictor file from 'napel train', [name=]path (repeatable)")
	stores := modelFlags{}
	flag.Var(stores, "model-store", "napel-traind base URL to pull the promoted model from, [name=]url (repeatable)")
	cacheEntries := flag.Int("cache-entries", 0, "response cache capacity (0 = default 4096)")
	maxBatch := flag.Int("max-batch", 0, "max items per batched predict (0 = default 256)")
	maxBody := flag.Int64("max-body-bytes", 0, "max request body bytes (0 = default 8 MiB)")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrent requests before 429 (0 = default 64)")
	workers := flag.Int("workers", 0, "batch fan-out worker pool size (0 = default)")
	drain := flag.Duration("drain-timeout", 10*time.Second, "in-flight drain deadline on shutdown")
	follow := flag.Duration("follow", 0, "poll model files at this interval and hot-install changes (0 disables; point -model at a napel-traind store's current-model.json)")
	lazy := flag.Bool("lazy", false, "start before any model loads; /readyz turns 200 once -follow installs one")
	join := flag.String("join", "", "napel-gate base URL to announce this replica to (POST /v1/fleet/join, repeated every -join-interval)")
	advertise := flag.String("advertise", "", "base URL the gate should reach this replica at (default derived from -addr with host 127.0.0.1)")
	joinInterval := flag.Duration("join-interval", 2*time.Second, "re-announce period while -join is set")
	queueWait := flag.Duration("queue-wait", 0, "how long a request may wait for a concurrency slot before 429 (0 = reject immediately)")
	predictBudget := flag.Duration("predict-budget", 0, "per-request deadline budget for predict/suitability (0 = none)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed of the deterministic fault-injection plan")
	chaosSpec := flag.String("chaos-spec", "", "fault-injection plan, e.g. 'serve.predict:0.1' (empty = chaos off)")
	quiet := flag.Bool("quiet", false, "disable the access log")
	traceOut := flag.String("trace-out", "", "append every completed span as one JSON line to this file (the /debug/traces ring is always on)")
	tracePush := flag.String("trace-push", "", "push completed spans in bounded batches to this napel-obsd base URL (empty = off)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionLine("napel-serve"))
		return
	}

	if len(models) == 0 && len(stores) == 0 {
		fmt.Fprintln(os.Stderr, "napel-serve: at least one -model or -model-store is required (train one with 'napel train')")
		flag.Usage()
		os.Exit(2)
	}
	for name := range stores {
		if _, dup := models[name]; dup {
			fmt.Fprintf(os.Stderr, "napel-serve: model %q given as both -model and -model-store\n", name)
			os.Exit(2)
		}
	}

	if *chaosSpec != "" {
		if err := faultpoint.Enable(*chaosSeed, *chaosSpec); err != nil {
			fmt.Fprintf(os.Stderr, "napel-serve: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "napel-serve: chaos plan active (seed %d): %s\n", *chaosSeed, *chaosSpec)
	}

	sources := make(map[string]serve.ModelSource, len(stores))
	for name, url := range stores {
		sources[name] = &serve.StoreSource{URL: strings.TrimSuffix(url, "/")}
	}
	cfg := serve.Config{
		ModelPaths:     models,
		ModelSources:   sources,
		CacheEntries:   *cacheEntries,
		MaxBatch:       *maxBatch,
		MaxBodyBytes:   *maxBody,
		MaxInFlight:    *maxInFlight,
		Workers:        *workers,
		DrainTimeout:   *drain,
		FollowInterval: *follow,
		LazyLoad:       *lazy,
		QueueWait:      *queueWait,
		PredictBudget:  *predictBudget,
	}
	if !*quiet {
		cfg.AccessLog = os.Stderr
	}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "napel-serve: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.TraceSink = f
	}
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "napel-serve: %v\n", err)
		os.Exit(1)
	}
	for _, m := range s.Registry().List() {
		fmt.Fprintf(os.Stderr, "napel-serve: model %s version %s (%s)\n", m.Name, m.Version, m.Path)
	}
	if *tracePush != "" {
		p := obs.NewPusher(obs.PushConfig{URL: *tracePush, Process: "napel-serve"})
		defer p.Close()
		p.Register(s.Obs())
		s.Tracer().SetPusher(p)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *join != "" {
		adv := *advertise
		if adv == "" {
			host := *addr
			if strings.HasPrefix(host, ":") {
				host = "127.0.0.1" + host
			}
			adv = "http://" + host
		}
		go announce(ctx, strings.TrimSuffix(*join, "/"), adv, *joinInterval)
	}
	fmt.Fprintf(os.Stderr, "napel-serve: listening on %s\n", *addr)
	if err := s.Run(ctx, *addr); err != nil {
		fmt.Fprintf(os.Stderr, "napel-serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "napel-serve: drained in-flight requests, exiting")
}

// announce keeps this replica registered with a napel-gate: one POST
// /v1/fleet/join per interval, forever. Re-announcing is idempotent at
// the gate and doubles as the recovery path — after an eviction (or a
// gate restart that lost the roster) the next announce re-registers
// the replica and the gate's prober readmits it. Only transitions are
// logged, not every round.
func announce(ctx context.Context, gate, advertise string, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	body, _ := json.Marshal(map[string]string{"url": advertise})
	client := &http.Client{Timeout: 5 * time.Second}
	joined := false
	first := true
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			gate+"/v1/fleet/join", bytes.NewReader(body))
		if err != nil {
			fmt.Fprintf(os.Stderr, "napel-serve: join: %v\n", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		ok := err == nil && resp.StatusCode == http.StatusOK
		if resp != nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		}
		switch {
		case ok && (!joined || first):
			fmt.Fprintf(os.Stderr, "napel-serve: announced %s to gate %s\n", advertise, gate)
		case !ok && (joined || first):
			if err != nil {
				fmt.Fprintf(os.Stderr, "napel-serve: gate %s unreachable: %v (retrying every %s)\n", gate, err, interval)
			} else {
				fmt.Fprintf(os.Stderr, "napel-serve: gate %s refused join: HTTP %d (retrying every %s)\n", gate, resp.StatusCode, interval)
			}
		}
		joined, first = ok, false
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}
