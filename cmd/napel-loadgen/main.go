// Command napel-loadgen drives a live napel-serve, or a napel-gate in
// front of replicas, with replayable mixed traffic and gates the result
// on its error rate and on bit-exact correctness probing:
//
//	napel train -out model.json
//	napel-serve -model model.json -addr :9090 &
//	napel-loadgen -target http://localhost:9090 -requests 2000 \
//	    -probe-model model.json -max-error-rate 0 -out report.json
//
// Traffic mixes single POST /v1/predict, batched predict arrays and
// POST /v1/suitability per -mix, from -workers concurrent clients
// issuing requests back to back with optional -think pauses, honoring
// Retry-After on 429/503 (capped by -max-retry-after) so a
// backpressuring server is paced, not hammered. Latency, throughput and
// CPU are measured by the serving benchmark (bash bench/run.sh), which
// reuses this package's generator and prober.
//
// Bodies are synthesized from -seed: the same seed yields a
// byte-identical request schedule, attested by digests in the report.
// With -probe-model, sampled responses are verified bit-for-bit against
// a local copy of the served model file — a server that is fast but
// wrong fails the run. With -base, variants reuse a real exported
// profile (see 'napel export-profile') and vary only the architecture
// point.
//
// Exit codes: 0 all SLO gates passed; 1 runtime error; 2 usage error;
// 3 SLO violation; 4 interrupted (SIGINT/SIGTERM — a partial report is
// still written, marked "interrupted").
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"napel/internal/loadgen"
	"napel/internal/obs"
	"napel/internal/serve"
)

const (
	exitOK          = 0
	exitError       = 1
	exitUsage       = 2
	exitSLO         = 3
	exitInterrupted = 4
)

func main() {
	os.Exit(run())
}

func run() int {
	target := flag.String("target", "", "base URL(s) to drive, comma-separated for round-robin across replicas or a gate (required)")
	scrapeTargets := flag.String("scrape-targets", "", "comma-separated /metrics endpoints to bracket the run (default: the -target list)")
	topology := flag.String("topology", "", "serving-shape stamp for the report, e.g. 'gate+3x serve'")
	workers := flag.Int("workers", 8, "concurrent clients")
	think := flag.Duration("think", 0, "pause between a worker's requests")
	requests := flag.Uint64("requests", 0, "stop after this many scheduled requests (0 = use -duration)")
	duration := flag.Duration("duration", 0, "stop after this much wall time (0 = use -requests)")
	seed := flag.Uint64("seed", 1, "seed for the replayable request schedule and bodies")
	keyspace := flag.Int("keyspace", 32, "distinct request variants per class (smaller = hotter server cache)")
	batchSize := flag.Int("batch-size", 16, "items per batched predict body")
	mixSpec := flag.String("mix", "", "traffic mix, e.g. predict=60,batch=20,suitability=20 (empty = default)")
	model := flag.String("model", "", "model name to request (empty = server default)")
	basePath := flag.String("base", "", "request file from 'napel export-profile'; variants reuse its profile and vary the architecture point")
	probeModel := flag.String("probe-model", "", "local copy of the served model file; sampled responses are verified against it bit-for-bit")
	probeEvery := flag.Int("probe-every", 8, "probe every Nth successful request per worker")
	maxRetryAfter := flag.Duration("max-retry-after", 2*time.Second, "cap on honored Retry-After hints")
	maxErrorRate := flag.Float64("max-error-rate", -1, "SLO: maximum hard-error fraction of issued requests, backpressure excluded (negative disables)")
	expectDegraded := flag.Bool("expect-degraded", false, "SLO: require at least one degraded answer (chaos-under-load gate)")
	scrape := flag.Bool("scrape", true, "scrape target /metrics before and after, attributing server-side allocs/GC/cache behavior")
	out := flag.String("out", "-", "report file ('-' = stdout)")
	tracePush := flag.String("trace-push", "", "push the client spans in bounded batches to this napel-obsd base URL (empty = off)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionLine("napel-loadgen"))
		return exitOK
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "napel-loadgen: %v\n", err)
		return exitError
	}
	usage := func(msg string) int {
		fmt.Fprintf(os.Stderr, "napel-loadgen: %s\n", msg)
		flag.Usage()
		return exitUsage
	}
	targets := splitList(*target)
	if len(targets) == 0 {
		return usage("-target is required")
	}
	if *requests == 0 && *duration <= 0 {
		return usage("one of -requests or -duration must bound the run")
	}
	mix, err := loadgen.ParseMix(*mixSpec)
	if err != nil {
		return usage(err.Error())
	}

	cfg := loadgen.Config{
		Targets:       targets,
		ScrapeTargets: splitList(*scrapeTargets),
		Workers:       *workers,
		Think:         *think,
		Requests:      *requests,
		Duration:      *duration,
		Mix:           mix,
		ProbeEvery:    *probeEvery,
		MaxRetryAfter: *maxRetryAfter,
		ScrapeMetrics: *scrape,
		Synth: loadgen.SynthConfig{
			Seed:      *seed,
			Keyspace:  *keyspace,
			BatchSize: *batchSize,
			Model:     *model,
		},
		SLO: loadgen.SLOLimits{
			MaxErrorRate:   *maxErrorRate,
			ExpectDegraded: *expectDegraded,
		},
	}
	if *basePath != "" {
		data, err := os.ReadFile(*basePath)
		if err != nil {
			return fail(err)
		}
		base := &serve.PredictRequest{}
		if err := json.Unmarshal(data, base); err != nil {
			return fail(fmt.Errorf("parsing -base %s: %w", *basePath, err))
		}
		cfg.Synth.Base = base
	}
	if *probeModel != "" {
		prober, err := loadgen.NewModelProber(*probeModel)
		if err != nil {
			return fail(fmt.Errorf("loading -probe-model: %w", err))
		}
		cfg.Prober = prober
	}

	if *tracePush != "" {
		// Requests are traceparent-stamped either way; the tracer keeps
		// loadgen's copy of each client span so obsd can root the
		// cross-process tree at the request's origin.
		tracer := obs.NewTracer(0, nil)
		p := obs.NewPusher(obs.PushConfig{URL: *tracePush, Process: "napel-loadgen"})
		defer p.Close()
		tracer.SetPusher(p)
		cfg.Trace = tracer
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	startedAt := time.Now().UTC()

	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return fail(err)
	}
	rep.GitRev = obs.Revision()
	rep.StartedAt = startedAt.Format(time.RFC3339)
	rep.Topology = *topology

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		return fail(err)
	}

	summarize(rep)
	switch {
	case rep.Interrupted:
		fmt.Fprintln(os.Stderr, "napel-loadgen: interrupted; partial report written")
		return exitInterrupted
	case !rep.SLOPass:
		fmt.Fprintln(os.Stderr, "napel-loadgen: SLO violation")
		return exitSLO
	}
	return exitOK
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(v string) []string {
	var out []string
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// summarize prints the human-readable digest to stderr; stdout stays
// reserved for the JSON report.
func summarize(rep *loadgen.Report) {
	fmt.Fprintf(os.Stderr, "napel-loadgen: %s seed=%d mix=%s %.1fs\n",
		rep.Target, rep.Seed, rep.Mix, rep.DurationSeconds)
	fmt.Fprintf(os.Stderr, "  issued %d  ok %d (%.1f req/s)  errors %d  backpressure %d  degraded %d\n",
		rep.Issued, rep.OK, rep.RequestsPerSec, rep.Errors, rep.Backpressure, rep.Degraded)
	for _, ep := range rep.Endpoints {
		if ep.Issued == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-12s p50 %7.2fms  p90 %7.2fms  p99 %7.2fms  p99.9 %7.2fms  (%d ok)\n",
			ep.Endpoint, ep.Latency.P50Ms, ep.Latency.P90Ms, ep.Latency.P99Ms, ep.Latency.P999Ms, ep.OK)
	}
	if rep.Probe.Enabled {
		fmt.Fprintf(os.Stderr, "  probed %d responses, %d mismatches\n", rep.Probe.Checked, rep.Probe.Mismatches)
	}
	if rep.Server != nil {
		fmt.Fprintf(os.Stderr, "  server: %.0f reqs, cache hit %.0f%%, %.0f B + %.1f mallocs per request, %d GC cycles\n",
			rep.Server.RequestsTotal, rep.Server.CacheHitRatio*100,
			rep.Server.AllocBytesPerRequest, rep.Server.MallocsPerRequest, int(rep.Server.GCCycles))
	}
	for _, v := range rep.SLO {
		fmt.Fprintf(os.Stderr, "  slo: %s\n", v)
	}
}
