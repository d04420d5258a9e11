// Command napel is the command-line front end of the NAPEL framework:
//
//	napel list                       enumerate the bundled kernels
//	napel doe -kernel atax           show the CCD training configurations
//	napel profile -kernel atax       run the PISA characterization
//	napel simulate -kernel atax      run the NMC simulator (Table 3 system)
//	napel host -kernel atax          run the host (POWER9) model
//	napel trace -kernel atax -out t.bin   capture a dynamic trace to a file
//	napel trace -in t.bin                 summarize/profile a captured trace
//	napel compare -kernel bfs        host vs NMC offload verdict for one kernel
//	napel train -out model.json      train on all 12 apps and save the model
//	napel predict -kernel atax       train on the other 11 apps, predict this one
//	napel predict -kernel x -model model.json   predict with a saved model
//	napel export-profile -kernel atax -out req.json   emit a napel-serve request
//
// Kernel inputs default to the Table 2 test configuration; override
// individual parameters with repeated -p name=value flags and scale all
// of them down with -scale.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"napel/internal/napel"
	"napel/internal/obs"
	"napel/internal/pisa"
	"napel/internal/resilience/faultpoint"
	"napel/internal/trace"
	"napel/internal/workload"
)

// exitCodeError carries a distinct process exit status through the
// subcommand error path. Code 3 marks a run that completed but skipped
// quarantined units, so scripts can tell "partial data" from "failed".
type exitCodeError struct {
	code int
	msg  string
}

func (e *exitCodeError) Error() string { return e.msg }

// chaosFlags registers the deterministic fault-injection flags on a
// subcommand's flag set; the returned enable installs the plan after
// parsing (a no-op when -chaos-spec is empty).
func chaosFlags(fs *flag.FlagSet) (enable func() error) {
	seed := fs.Uint64("chaos-seed", 1, "seed of the deterministic fault-injection plan")
	spec := fs.String("chaos-spec", "", "fault-injection plan, e.g. 'engine.unit:0.1' (empty = chaos off)")
	return func() error {
		if *spec == "" {
			return nil
		}
		return faultpoint.Enable(*seed, *spec)
	}
}

// reportQuarantined prints every skipped unit and converts the run's nil
// error into the distinct quarantine exit code. Entries are deduplicated
// by unit key so a unit that failed, retried, and failed again is
// reported — and counted — once, however many times it appears.
func reportQuarantined(td *napel.TrainingData) error {
	if len(td.Quarantined) == 0 {
		return nil
	}
	seen := map[string]bool{}
	units := 0
	for _, q := range td.Quarantined {
		key := napel.UnitKey(q.App, q.Input)
		if seen[key] {
			continue
		}
		seen[key] = true
		units++
		fmt.Fprintf(os.Stderr, "napel: quarantined %s %s: %s\n", q.App, q.Input, q.Error)
	}
	return &exitCodeError{code: 3,
		msg: fmt.Sprintf("%d unit(s) quarantined; collected data excludes them", units)}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = runList()
	case "doe":
		err = runDoE(args)
	case "profile":
		err = runProfile(args)
	case "simulate":
		err = runSimulate(args)
	case "host":
		err = runHost(args)
	case "trace":
		err = runTrace(args)
	case "compare":
		err = runCompare(args)
	case "train":
		err = runTrain(args)
	case "predict":
		err = runPredict(args)
	case "export-profile":
		err = runExportProfile(args)
	case "version", "-version", "--version":
		fmt.Println(obs.VersionLine("napel"))
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "napel: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "napel: %v\n", err)
		var ec *exitCodeError
		if errors.As(err, &ec) {
			os.Exit(ec.code)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: napel <list|doe|profile|simulate|host|trace|compare|train|predict|export-profile|version> [flags]")
	fmt.Fprintln(os.Stderr, "run 'napel <command> -h' for command flags")
	fmt.Fprintln(os.Stderr, "'train' and 'doe -collect' parallelize across -workers goroutines (default GOMAXPROCS)")
	fmt.Fprintln(os.Stderr, "and abort cleanly on interrupt, reporting partial timing")
}

// interruptContext returns a context cancelled by the first SIGINT, so a
// long-running collection stops at the next unit boundary and partial
// results can still be reported. A second SIGINT forces immediate exit
// with a non-zero status — signal.NotifyContext alone would swallow it
// while the first cancellation is still unwinding, leaving no way to
// kill a run that is slow to stop. stop deregisters the handler and
// restores default delivery.
func interruptContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt)
	go func() {
		<-ch
		fmt.Fprintln(os.Stderr, "napel: interrupt — stopping at the next unit boundary (interrupt again to force exit)")
		cancel()
		<-ch
		fmt.Fprintln(os.Stderr, "napel: second interrupt, forcing exit")
		os.Exit(130)
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() { signal.Stop(ch) })
		cancel()
	}
	return ctx, stop
}

// reportPartial prints what a cancelled collection managed to gather.
func reportPartial(td *napel.TrainingData) {
	var profT, simT float64
	for _, d := range td.ProfileTime {
		profT += d.Seconds()
	}
	for _, d := range td.SimTime {
		simT += d.Seconds()
	}
	fmt.Printf("interrupted: %d samples collected before cancellation (profiling %.1fs, simulation %.1fs)\n",
		len(td.Samples), profT, simT)
}

// kernelFlags holds the common flags of kernel-oriented subcommands.
type kernelFlags struct {
	fs     *flag.FlagSet
	name   *string
	scale  *int
	iters  *int
	budget *uint64
	params paramList
}

type paramList map[string]int

func (p paramList) String() string { return fmt.Sprint(map[string]int(p)) }

func (p paramList) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=value, got %q", v)
	}
	n, err := strconv.Atoi(val)
	if err != nil {
		return fmt.Errorf("parameter %s: %v", name, err)
	}
	p[name] = n
	return nil
}

func newKernelFlags(cmd string, defaultBudget uint64) *kernelFlags {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	kf := &kernelFlags{
		fs:     fs,
		name:   fs.String("kernel", "", "kernel name (see 'napel list')"),
		scale:  fs.Int("scale", 1, "divide dimension-like parameters by this factor"),
		iters:  fs.Int("max-iters", 0, "cap iteration-count parameters (0 = no cap)"),
		budget: fs.Uint64("budget", defaultBudget, "instruction budget (0 = unlimited)"),
		params: paramList{},
	}
	fs.Var(kf.params, "p", "override one input parameter, name=value (repeatable)")
	return kf
}

func (kf *kernelFlags) resolve(args []string) (workload.Kernel, workload.Input, error) {
	if err := kf.fs.Parse(args); err != nil {
		return nil, nil, err
	}
	return kf.resolveParsed()
}

// resolveParsed derives the kernel and input after the flag set has
// already been parsed.
func (kf *kernelFlags) resolveParsed() (workload.Kernel, workload.Input, error) {
	if *kf.name == "" {
		return nil, nil, fmt.Errorf("missing -kernel (see 'napel list')")
	}
	k, err := workload.ByName(*kf.name)
	if err != nil {
		return nil, nil, err
	}
	in := workload.TestInput(k)
	for name, v := range kf.params {
		in[name] = v
	}
	in = workload.Scale(k, in, *kf.scale, *kf.iters)
	if err := workload.Validate(k, in); err != nil {
		return nil, nil, err
	}
	return k, in, nil
}

func runList() error {
	fmt.Printf("%-8s %-38s %s\n", "name", "description", "DoE parameters")
	list := func(ks []workload.Kernel) {
		for _, k := range ks {
			names := make([]string, 0, 4)
			for _, p := range k.Params() {
				names = append(names, p.Name)
			}
			fmt.Printf("%-8s %-38s %s\n", k.Name(), k.Description(), strings.Join(names, ", "))
		}
	}
	list(workload.All())
	fmt.Println("extension kernels (beyond the paper's Table 2):")
	list(workload.Extensions())
	return nil
}

func runDoE(args []string) error {
	kf := newKernelFlags("doe", 400_000)
	collect := kf.fs.Bool("collect", false, "run the DoE collection (profile + simulate every configuration)")
	workers := kf.fs.Int("workers", 0, "parallel collection workers (0 = GOMAXPROCS)")
	unitRetries := kf.fs.Int("unit-retries", 0, "re-execute a failed collection unit up to this many times")
	quarantine := kf.fs.Bool("quarantine", false, "skip units that exhaust their retries instead of aborting (exit code 3 when any skipped)")
	enableChaos := chaosFlags(kf.fs)
	k, _, err := kf.resolve(args)
	if err != nil {
		return err
	}
	if err := enableChaos(); err != nil {
		return err
	}
	inputs := napel.CCDInputs(k)
	fmt.Printf("%s: %d CCD training configurations\n", k.Name(), len(inputs))
	for i, in := range inputs {
		fmt.Printf("%3d  %s\n", i+1, in)
	}
	if !*collect {
		return nil
	}

	opts := napel.DefaultOptions()
	opts.ScaleFactor = *kf.scale
	if *kf.iters > 0 {
		opts.MaxIters = *kf.iters
	}
	opts.SimBudget = *kf.budget
	opts.Workers = *workers
	opts.UnitRetries = *unitRetries
	opts.QuarantineFailures = *quarantine
	ctx, stop := interruptContext()
	defer stop()
	fmt.Printf("collecting with %d workers...\n", effectiveWorkers(*workers))
	td, err := napel.CollectContext(ctx, []workload.Kernel{k}, opts)
	if err != nil {
		if errors.Is(err, context.Canceled) && td != nil {
			reportPartial(td)
		}
		return err
	}
	for _, r := range td.Summary() {
		fmt.Printf("  %-6s %3d rows (%2d DoE confs), IPC [%.2f, %.2f], EPI [%.3g, %.3g] pJ\n",
			r.App, r.Rows, r.DoEConfigs, r.MinIPC, r.MaxIPC, r.MinEPI*1e12, r.MaxEPI*1e12)
	}
	fmt.Printf("profiling %.1fs, simulation %.1fs\n",
		td.ProfileTime[k.Name()].Seconds(), td.SimTime[k.Name()].Seconds())
	return reportQuarantined(td)
}

// effectiveWorkers mirrors Options' worker resolution for display.
func effectiveWorkers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

func runProfile(args []string) error {
	kf := newKernelFlags("profile", 1_000_000)
	full := kf.fs.Bool("features", false, "print the full 395-feature vector")
	jsonOut := kf.fs.String("json", "", "write the profile as JSON to this path ('-' for stdout)")
	k, in, err := kf.resolve(args)
	if err != nil {
		return err
	}
	prof, err := napel.ProfileKernel(k, in, *kf.budget)
	if err != nil {
		return err
	}
	if *jsonOut != "" {
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		return prof.WriteJSON(out)
	}
	fmt.Printf("kernel %s, input %s\n", k.Name(), in)
	fmt.Printf("profiled instructions  %d (coverage %.4f, extrapolated total %.4g)\n",
		prof.SimInstrs(), prof.Coverage(), prof.TotalInstrs())
	fmt.Printf("memory footprint       %.4g bytes\n", prof.FootprintBytes())
	fmt.Printf("memory instruction mix %.1f%%\n", prof.MemFraction()*100)
	fmt.Printf("est. hit fraction at Table 3 L1 (2 lines): %.3f\n", prof.EstHitFraction(2))
	if *full {
		names := pisa.FeatureNames()
		vec := prof.Vector()
		for i, n := range names {
			fmt.Printf("%-28s %.6g\n", n, vec[i])
		}
	}
	return nil
}

func runSimulate(args []string) error {
	kf := newKernelFlags("simulate", 1_000_000)
	pes := kf.fs.Int("pes", 0, "override PE count")
	freq := kf.fs.Float64("freq", 0, "override PE frequency, GHz")
	lines := kf.fs.Int("cache-lines", 0, "override L1 line count")
	k, in, err := kf.resolve(args)
	if err != nil {
		return err
	}
	cfg := napel.DefaultOptions().RefArch
	if *pes > 0 {
		cfg.PEs = *pes
	}
	if *freq > 0 {
		cfg.FreqGHz = *freq
	}
	if *lines > 0 {
		cfg.L1.Lines = *lines
		if cfg.L1.Assoc > *lines {
			cfg.L1.Assoc = *lines
		}
	}
	res, err := napel.SimulateKernel(k, in, cfg, *kf.budget)
	if err != nil {
		return err
	}
	fmt.Printf("kernel %s, input %s\n", k.Name(), in)
	fmt.Printf("NMC: %d PEs @ %.2f GHz, L1 %d x %dB\n", cfg.PEs, cfg.FreqGHz, cfg.L1.Lines, cfg.L1.LineSize)
	fmt.Printf("simulated instrs  %d (coverage %.4g, I_offload %.4g)\n", res.SimInstrs, res.Coverage, res.TotalInstrs)
	fmt.Printf("IPC (aggregate)   %.3f\n", res.IPC)
	fmt.Printf("exec time         %.4g s\n", res.TimeSec)
	fmt.Printf("energy            %.4g J (EPI %.4g pJ)\n", res.EnergyJ, res.EPI*1e12)
	fmt.Printf("  breakdown       PE %.3g | cache %.3g | DRAM %.3g | link %.3g | static %.3g J\n",
		res.Energy.PEJ, res.Energy.CacheJ, res.Energy.DRAMJ, res.Energy.LinkJ, res.Energy.StaticJ)
	fmt.Printf("EDP               %.4g J*s\n", res.EDP)
	fmt.Printf("L1 hit rate       %.3f\n", res.L1.HitRate())
	fmt.Printf("DRAM              %d activates, %d reads, %d writes, %d coalesced row hits\n",
		res.DRAM.Activations, res.DRAM.Reads, res.DRAM.Writes, res.DRAM.RowHits)
	return nil
}

func runHost(args []string) error {
	kf := newKernelFlags("host", 2_000_000)
	k, in, err := kf.resolve(args)
	if err != nil {
		return err
	}
	res, err := napel.HostRun(k, in, napel.DefaultOptions().Host, *kf.budget)
	if err != nil {
		return err
	}
	fmt.Printf("kernel %s, input %s\n", k.Name(), in)
	fmt.Printf("simulated instrs  %d (coverage %.4g)\n", res.SimInstrs, res.Coverage)
	fmt.Printf("exec time         %.4g s (thread speedup %.1fx)\n", res.TimeSec, res.Speedup)
	fmt.Printf("energy            %.4g J\n", res.EnergyJ)
	fmt.Printf("  breakdown       core %.3g | caches %.3g | DRAM %.3g | static %.3g J\n",
		res.Energy.CoreJ, res.Energy.CacheJ, res.Energy.DRAMJ, res.Energy.StaticJ)
	fmt.Printf("EDP               %.4g J*s\n", res.EDP)
	fmt.Printf("caches            L1 %.3f / L2 %.3f / L3 %.3f hit\n",
		res.L1.HitRate(), res.L2.HitRate(), res.L3.HitRate())
	fmt.Printf("off-chip traffic  %.4g bytes, shared-write fraction %.3f\n", res.DRAMBytes, res.SharedWriteFrac)
	return nil
}

// runTrace captures a kernel's dynamic trace to a file (-out) or
// summarizes and profiles a previously captured file (-in).
func runTrace(args []string) error {
	kf := newKernelFlags("trace", 500_000)
	out := kf.fs.String("out", "", "write the captured trace to this path")
	in := kf.fs.String("in", "", "read and summarize a trace file instead of capturing")
	if err := kf.fs.Parse(args); err != nil {
		return err
	}
	if *in != "" {
		return summarizeTrace(*in)
	}
	k, input, err := kf.resolveParsed()
	if err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("missing -out path (or use -in to inspect a file)")
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	count, cov, err := trace.WriteTrace(f, *kf.budget, func(tr *trace.Tracer) {
		k.Trace(input, 0, 1, tr)
	})
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("captured %d instructions of %s at %s (coverage %.4g) to %s\n",
		count, k.Name(), input, cov, *out)
	return nil
}

// summarizeTrace replays a trace file through the PISA profiler and
// prints the headline characterization.
func summarizeTrace(path string) error {
	if path == "" {
		return fmt.Errorf("missing -in path")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fr, err := trace.OpenTrace(f)
	if err != nil {
		return err
	}
	prof := pisa.NewProfiler()
	n, err := fr.Replay(prof)
	if err != nil {
		return err
	}
	prof.SetCoverage(fr.Coverage)
	p := prof.Profile()
	fmt.Printf("trace file %s\n", path)
	fmt.Printf("records            %d (coverage %.4g, extrapolated total %.4g)\n", n, fr.Coverage, p.TotalInstrs())
	fmt.Printf("memory fraction    %.1f%%\n", p.MemFraction()*100)
	fmt.Printf("memory footprint   %.4g bytes\n", p.FootprintBytes())
	fmt.Printf("est. hit fraction at Table 3 L1 (2 lines): %.3f\n", p.EstHitFraction(2))
	return nil
}

// runCompare runs the one-kernel version of the Section 3.4 use case:
// host execution vs NMC offload, judged by energy-delay product, with an
// optional NAPEL model providing the simulation-free estimate alongside
// the simulator's ground truth.
func runCompare(args []string) error {
	kf := newKernelFlags("compare", 1_500_000)
	modelPath := kf.fs.String("model", "", "optional predictor from 'napel train' for the NAPEL estimate")
	k, in, err := kf.resolve(args)
	if err != nil {
		return err
	}
	opts := napel.DefaultOptions()

	host, err := napel.HostRun(k, in, opts.Host, *kf.budget)
	if err != nil {
		return err
	}
	nmc, err := napel.SimulateKernel(k, in, opts.RefArch, *kf.budget)
	if err != nil {
		return err
	}

	fmt.Printf("kernel %s, input %s\n\n", k.Name(), in)
	fmt.Printf("%-14s %14s %14s %14s\n", "", "time (s)", "energy (J)", "EDP (J*s)")
	fmt.Printf("%-14s %14.4g %14.4g %14.4g\n", "host (POWER9)", host.TimeSec, host.EnergyJ, host.EDP)
	fmt.Printf("%-14s %14.4g %14.4g %14.4g\n", "NMC (Table 3)", nmc.TimeSec, nmc.EnergyJ, nmc.EDP)
	reduction := 0.0
	if nmc.EDP > 0 {
		reduction = host.EDP / nmc.EDP
	}
	verdict := "keep on the host"
	if reduction > 1 {
		verdict = "offload to NMC"
	}
	fmt.Printf("\nEDP reduction %.2fx -> %s\n", reduction, verdict)

	if *modelPath != "" {
		pred, err := napel.LoadPredictorFile(*modelPath)
		if err != nil {
			return err
		}
		prof, err := napel.ProfileKernel(k, in, *kf.budget/4)
		if err != nil {
			return err
		}
		est := pred.Predict(prof, opts.RefArch, in.Threads())
		predReduction := 0.0
		if est.EDP > 0 {
			predReduction = host.EDP / est.EDP
		}
		fmt.Printf("NAPEL estimate (no simulation): EDP %.4g J*s, reduction %.2fx\n", est.EDP, predReduction)
		if (predReduction > 1) == (reduction > 1) {
			fmt.Println("NAPEL agrees with the simulator's verdict")
		} else {
			fmt.Println("NAPEL disagrees with the simulator's verdict")
		}
	}
	return nil
}

// runTrain collects DoE data for the selected applications (all twelve
// by default), trains the two models and writes the predictor to -out.
func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	out := fs.String("out", "napel-model.json", "output path for the trained predictor")
	kernels := fs.String("kernels", "", "comma-separated kernel subset to train on (default: all 12 apps)")
	trainScale := fs.Int("train-scale", 1, "scale factor for the DoE training inputs")
	simBudget := fs.Uint64("train-sim-budget", 400_000, "instructions per training simulation")
	profBudget := fs.Uint64("train-profile-budget", 500_000, "instructions per training profile")
	tune := fs.Bool("tune", false, "run the hyper-parameter grid search")
	seed := fs.Uint64("seed", 42, "pipeline seed")
	workers := fs.Int("workers", 0, "parallel collection workers (0 = GOMAXPROCS)")
	resume := fs.String("resume", "", "checkpoint file: collection progress is saved here and an interrupted run restarted with the same flags continues from it")
	traceOut := fs.String("trace-out", "", "write the engine's per-unit spans as JSON lines to this file")
	metricsOut := fs.String("metrics-out", "", "write the engine's metrics (Prometheus text format) to this file after collection ('-' for stderr)")
	unitRetries := fs.Int("unit-retries", 0, "re-execute a failed collection unit up to this many times")
	quarantine := fs.Bool("quarantine", false, "skip units that exhaust their retries instead of aborting (exit code 3 when any skipped)")
	enableChaos := chaosFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := enableChaos(); err != nil {
		return err
	}

	opts := napel.DefaultOptions()
	opts.ScaleFactor = *trainScale
	opts.SimBudget = *simBudget
	opts.ProfileBudget = *profBudget
	opts.Workers = *workers
	opts.UnitRetries = *unitRetries
	opts.QuarantineFailures = *quarantine
	if *metricsOut != "" {
		opts.Metrics = obs.NewRegistry()
		obs.RegisterBuildInfo(opts.Metrics, "napel")
	}

	apps := workload.All()
	if *kernels != "" {
		apps = apps[:0:0]
		for _, name := range strings.Split(*kernels, ",") {
			k, err := workload.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			apps = append(apps, k)
		}
	}

	// With -resume, completed (kernel, input) units are checkpointed to
	// the named file as collection progresses; a prior checkpoint seeds
	// the run so only unfinished units execute. The final model is
	// bit-identical either way.
	var ck *napel.CollectCheckpoint
	if *resume != "" {
		prior, err := napel.LoadTrainingDataFile(*resume)
		switch {
		case err == nil:
			fmt.Printf("resuming from checkpoint %s (%d samples)\n", *resume, len(prior.Samples))
		case errors.Is(err, os.ErrNotExist):
			prior = nil // first run: the file appears once units complete
		default:
			return fmt.Errorf("reading checkpoint %s: %w", *resume, err)
		}
		lastWrite := time.Now()
		ck = &napel.CollectCheckpoint{
			Prior: prior,
			OnUnit: func(done, total int, snapshot func() *napel.TrainingData) {
				if done < total && time.Since(lastWrite) < time.Second {
					return
				}
				lastWrite = time.Now()
				if err := napel.WriteTrainingDataFile(*resume, snapshot()); err != nil {
					fmt.Fprintf(os.Stderr, "napel: checkpoint write failed: %v\n", err)
				}
			},
		}
	}

	fmt.Printf("collecting DoE training data for %d applications (%d workers)...\n",
		len(apps), effectiveWorkers(*workers))
	ctx, stop := interruptContext()
	defer stop()
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		ctx = obs.WithTracer(ctx, obs.NewTracer(0, f))
	}
	// The exposition dump happens on every exit path, so an interrupted
	// run still reports how far the engine got.
	if opts.Metrics != nil {
		defer func() {
			if werr := writeMetricsFile(*metricsOut, opts.Metrics); werr != nil {
				fmt.Fprintf(os.Stderr, "napel: writing metrics: %v\n", werr)
			}
		}()
	}
	td, err := napel.CollectResumeContext(ctx, apps, opts, ck)
	if err != nil {
		if errors.Is(err, context.Canceled) && td != nil {
			reportPartial(td)
			if *resume != "" && len(td.Samples) > 0 {
				if werr := napel.WriteTrainingDataFile(*resume, td); werr == nil {
					fmt.Printf("checkpoint saved to %s; rerun with the same flags to continue\n", *resume)
				}
			}
		}
		return err
	}
	for _, r := range td.Summary() {
		fmt.Printf("  %-6s %3d rows (%2d DoE confs), IPC [%.2f, %.2f], EPI [%.3g, %.3g] pJ\n",
			r.App, r.Rows, r.DoEConfigs, r.MinIPC, r.MaxIPC, r.MinEPI*1e12, r.MaxEPI*1e12)
	}
	fmt.Printf("training NAPEL on %d samples...\n", len(td.Samples))
	var pred *napel.Predictor
	if *tune {
		pred, err = napel.TrainTuned(td, *seed)
	} else {
		pred, err = napel.Train(td, *seed)
	}
	if err != nil {
		return err
	}
	// Atomic publish: a napel-serve instance (re)loading -out mid-write
	// sees the previous complete model, never a truncated one.
	if err := napel.WritePredictorFile(*out, pred); err != nil {
		return err
	}
	if *resume != "" {
		if err := os.Remove(*resume); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "napel: removing checkpoint %s: %v\n", *resume, err)
		}
	}
	if oobIPC, oobEPI := pred.OOB(); oobIPC >= 0 {
		fmt.Printf("out-of-bag MRE: performance %.1f%%, energy %.1f%% (log-space)\n", oobIPC*100, oobEPI*100)
	}
	fmt.Printf("saved predictor (%v, train time %.1fs) to %s\n", pred.Chosen, pred.TrainTime.Seconds(), *out)
	// The model is published either way; quarantined units only change
	// the exit status so callers can detect the thinner dataset.
	return reportQuarantined(td)
}

// writeMetricsFile dumps a registry's exposition text to path, with "-"
// meaning stderr.
func writeMetricsFile(path string, reg *obs.Registry) error {
	if path == "-" {
		return reg.WriteText(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runPredict(args []string) error {
	kf := newKernelFlags("predict", 150_000)
	modelPath := kf.fs.String("model", "", "load a predictor saved by 'napel train' instead of training")
	trainScale := kf.fs.Int("train-scale", 1, "scale factor for the DoE training inputs")
	simBudget := kf.fs.Uint64("train-sim-budget", 400_000, "instructions per training simulation")
	tune := kf.fs.Bool("tune", false, "run the hyper-parameter grid search")
	k, in, err := kf.resolve(args)
	if err != nil {
		return err
	}

	opts := napel.DefaultOptions()
	opts.ScaleFactor = *trainScale
	opts.SimBudget = *simBudget
	opts.ProfileBudget = 500_000

	var pred *napel.Predictor
	if *modelPath != "" {
		var err error
		pred, err = napel.LoadPredictorFile(*modelPath)
		if err != nil {
			return err
		}
		fmt.Printf("loaded predictor from %s\n", *modelPath)
	} else {
		// Leave-one-application-out: train on everything except the target.
		var others []workload.Kernel
		for _, other := range workload.All() {
			if other.Name() != k.Name() {
				others = append(others, other)
			}
		}
		fmt.Printf("collecting DoE training data for %d applications...\n", len(others))
		td, err := napel.Collect(others, opts)
		if err != nil {
			return err
		}
		fmt.Printf("training NAPEL on %d samples...\n", len(td.Samples))
		if *tune {
			pred, err = napel.TrainTuned(td, 42)
		} else {
			pred, err = napel.Train(td, 42)
		}
		if err != nil {
			return err
		}
		fmt.Printf("chosen models: %v (train time %.1fs)\n", pred.Chosen, pred.TrainTime.Seconds())
	}

	prof, err := napel.ProfileKernel(k, in, *kf.budget)
	if err != nil {
		return err
	}
	est := pred.Predict(prof, opts.RefArch, in.Threads())
	fmt.Printf("prediction for unseen application %s at %s:\n", k.Name(), in)
	fmt.Printf("  IPC        %.3f\n", est.IPC)
	fmt.Printf("  exec time  %.4g s (I_offload %.4g)\n", est.TimeSec, est.TotalInstrs)
	fmt.Printf("  energy     %.4g J (EPI %.4g pJ)\n", est.EnergyJ, est.EPI*1e12)
	fmt.Printf("  EDP        %.4g J*s\n", est.EDP)
	return nil
}
