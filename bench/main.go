// Command bench is the serving benchmark: it builds nothing itself (see
// run.sh), spawns napel-serve and napel-gate as child processes, drives
// them with seeded traffic from loadgen.Generator over at most two
// connections, measures end-to-end and per-layer metrics from outside
// the processes, and checks every sampled answer bit for bit.
//
//	bash bench/run.sh -seed 1 -out DIR                    all four workloads
//	bash bench/run.sh --workload hot --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -compare A.json B.json [-force]
//
// Each workload's measured time (-seconds, 30 by default) is split into
// rounds of at most 10 s; a round spawns fresh processes (timed as
// setup_s), warms them up untimed for 2 s, then measures one window.
// With all workloads, rounds interleave across them. Every metric is the
// median of its rounds, except latency quantiles and start-up times,
// which are taken over the samples of all rounds together. The last
// line of standard output is one JSON object: correct, attempted,
// failed, and the metrics BENCHMARK.json lists (end-to-end with -trace
// 0, per-layer with -trace 1).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"napel/internal/loadgen"
)

// allWorkloads is the benchmark's workload set in run order.
var allWorkloads = []string{"hot", "sweep", "promote", "fleet"}

// maxWindow is the longest measured window of one round.
const maxWindow = 10 * time.Second

func main() { os.Exit(run()) }

func run() int {
	only := flag.String("workload", "", "run only this workload (default: all four, rounds interleaved)")
	seed := flag.Uint64("seed", 1, "traffic seed: the same seed sends the same requests")
	seconds := flag.Float64("seconds", 30, "measured seconds per workload, split evenly into rounds of at most 10 s")
	traceFlag := flag.Int("trace", 0, "1: run the traced in-process replay and report the per-layer metrics")
	out := flag.String("out", "", "directory to write report.json and trace.jsonl to")
	bin := flag.String("bin", ".bench_build/bin", "directory holding napel-serve and napel-gate")
	work := flag.String("work", ".bench_build", "directory for the training cache and per-round files")
	prepKey := flag.String("prep-key", "", "training cache entry: a hash of the training code and settings")
	compare := flag.Bool("compare", false, "compare two reports: -compare [-force] A.json B.json")
	force := flag.Bool("force", false, "with -compare, compare reports whose nproc or digests differ")
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	if *compare {
		return runCompare(spec, flag.Args(), *force)
	}
	if flag.NArg() > 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		return 2
	}
	if *prepKey == "" {
		return fail(fmt.Errorf("-prep-key is required (bench/run.sh computes it)"))
	}
	names := allWorkloads
	if *only != "" {
		names = []string{*only}
	}
	rounds := int(math.Ceil(*seconds / maxWindow.Seconds()))
	window := time.Duration(*seconds * float64(time.Second) / float64(rounds))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	prepStart := time.Now()
	prep, err := prepare(filepath.Join(*work, "prep", *prepKey))
	if err != nil {
		return fail(fmt.Errorf("preparing models: %w", err))
	}
	prepS := time.Since(prepStart).Seconds()
	// Model files carry their training time, so versions differ between
	// training runs; the probers compute them the way napel-serve does.
	pa, err := loadgen.NewModelProber(prep.pathA)
	if err != nil {
		return fail(err)
	}
	pb, err := loadgen.NewModelProber(prep.pathB)
	if err != nil {
		return fail(err)
	}
	prep.versionA, prep.versionB = pa.Version(), pb.Version()
	probers := map[string]*loadgen.ModelProber{pa.Version(): pa, pb.Version(): pb}

	var ws []*workload
	for _, name := range names {
		w, err := newWorkload(name, *seed, &prep.base)
		if err != nil {
			return fail(err)
		}
		ws = append(ws, w)
	}
	r := &runner{ctx: ctx, bin: *bin, work: *work, prep: prep, probers: probers, window: window}

	rep := &report{
		Schema: "napel-serving-bench/v1",
		Header: header{
			GitRev: gitRev(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Seed: *seed, Rounds: rounds,
			WarmupS: warmup.Seconds(), WindowS: window.Seconds(), ReplayOps: replayOps,
			PrepKey: *prepKey, PrepS: prepS, ModelA: prep.versionA, ModelB: prep.versionB,
		},
		Correct: true,
	}
	perRound := make([][]*roundOut, len(ws))
	for n := 0; n < rounds; n++ {
		for i, w := range ws {
			ro, err := r.round(w, n)
			if err != nil {
				return fail(fmt.Errorf("%s round %d: %w", w.name, n+1, err))
			}
			perRound[i] = append(perRound[i], ro)
			rep.Header.HostSpinMs = append(rep.Header.HostSpinMs, ro.metrics["host.spin_ms"])
		}
	}

	replay := *only == "" || *traceFlag == 1
	var traceFile *os.File
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fail(err)
		}
		if replay {
			if traceFile, err = os.Create(filepath.Join(*out, "trace.jsonl")); err != nil {
				return fail(err)
			}
			defer traceFile.Close()
		}
	}
	// Workloads that send the same ops to the same cache size (hot,
	// promote and fleet) share one replay: it would repeat the same work.
	type replaySource struct {
		schedule, bodies string
		cacheEntries     int
	}
	replayed := map[replaySource]map[string]float64{}
	for i, w := range ws {
		wr := summarize(w, spec, perRound[i])
		if replay {
			src := replaySource{wr.ScheduleDigest, wr.BodyDigest, w.cacheEntries}
			m, ok := replayed[src]
			if !ok {
				var tw io.Writer
				if traceFile != nil {
					tw = traceFile
				}
				if m, err = replayMetrics(w, i, prep, tw); err != nil {
					return fail(fmt.Errorf("%s replay: %w", w.name, err))
				}
				replayed[src] = m
			}
			for name, v := range m {
				wr.Metrics[name] = metricOut{Value: v, Unit: units[name]}
			}
		}
		for _, c := range wr.checks {
			rep.Correct = rep.Correct && (c.Pass || c.Advisory)
			rep.Checks = append(rep.Checks, c)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(filepath.Join(*out, "report.json"), append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}

	result, err := summaryLine(rep, spec, *only != "", *traceFlag == 1)
	if err != nil {
		return fail(err)
	}
	for _, wr := range rep.Workloads {
		keys := make([]string, 0, len(wr.Metrics))
		for k := range wr.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%s %s %.6g %s\n", wr.Name, k, wr.Metrics[k].Value, wr.Metrics[k].Unit)
		}
	}
	for _, c := range rep.Checks {
		switch {
		case !c.Pass && c.Advisory:
			fmt.Fprintf(os.Stderr, "bench: warning: advisory check %s failed: %s\n", c.Name, c.Detail)
		case !c.Pass:
			fmt.Fprintf(os.Stderr, "bench: check %s failed: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Println(string(result))
	if !rep.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

// gitRev reads the checked-out commit from .git without running git,
// which would search directories above the checkout; "unknown" outside
// a clone.
func gitRev() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if rev, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(rev))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}
