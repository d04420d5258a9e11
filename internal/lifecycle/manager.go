package lifecycle

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"napel/internal/atomicfile"
	"napel/internal/collectd"
	"napel/internal/napel"
	"napel/internal/obs"
	"napel/internal/resilience"
	"napel/internal/resilience/faultpoint"
	"napel/internal/workload"
)

// fpPromote fails a promotion just before the store flips its pointers,
// active only under an installed faultpoint plan.
const fpPromote = "traind.promote"

// ManagerConfig configures the training-job manager.
type ManagerConfig struct {
	Store *Store
	// Coordinator, when non-nil, configures the worker coordinator that
	// serves jobs submitted with distributed: true — their collection
	// units are leased to napel-worker processes instead of executing
	// in-process. NewManager builds it with the manager's registry and
	// tracer in place of the config's own, and NewAPIHandler mounts its
	// worker protocol on the same API listener.
	Coordinator *collectd.Config
	// JobsDir holds one directory per job (job.json + checkpoint.json).
	JobsDir string
	// Concurrency is the number of jobs running at once (default 1 —
	// each job already parallelizes collection internally).
	Concurrency int
	// QueueDepth bounds the submission queue (default 64). Submissions
	// beyond it fail fast instead of piling up.
	QueueDepth int
	// GateTolerance is the canary slack: a candidate is promoted when
	// its holdout error is at most incumbent_error × GateTolerance
	// (default 1.05 — up to 5% worse still promotes, anything beyond is
	// a regression).
	GateTolerance float64
	// HoldoutFrac is the default held-out fraction (default 0.25).
	HoldoutFrac float64
	// CheckpointEvery throttles mid-collection checkpoint writes; 0
	// checkpoints after every completed unit.
	CheckpointEvery time.Duration
	// RetryBackoff is the base delay before re-attempting a failed job;
	// attempt n waits RetryBackoff × 2^(n-1) (default 500ms).
	RetryBackoff time.Duration
	// MaxRetries is the default number of re-attempts after the first
	// failure (default 2). A job spec may override it.
	MaxRetries int
	// PromoteFailureThreshold is how many consecutive gate rejections or
	// promotion failures open the promotion circuit breaker (default 3):
	// while it is open, candidates are rejected without gating, so a
	// stream of bad candidates cannot flap the serving pointer or keep
	// re-scoring against the incumbent.
	PromoteFailureThreshold int
	// PromoteCooldown is how long the promotion breaker stays open
	// before probing with a real gate run again (default 1m).
	PromoteCooldown time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
	// TraceSink, when non-nil, additionally receives every completed
	// span as one JSON line (JSONL).
	TraceSink io.Writer
}

func (c *ManagerConfig) fillDefaults() {
	if c.Concurrency <= 0 {
		c.Concurrency = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.GateTolerance <= 0 {
		c.GateTolerance = 1.05
	}
	if c.HoldoutFrac <= 0 || c.HoldoutFrac >= 1 {
		c.HoldoutFrac = 0.25
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 500 * time.Millisecond
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.PromoteFailureThreshold <= 0 {
		c.PromoteFailureThreshold = 3
	}
	if c.PromoteCooldown <= 0 {
		c.PromoteCooldown = time.Minute
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Manager runs training jobs through the collect→train→evaluate→gate
// pipeline with crash-safe checkpoints. Jobs and their checkpoints are
// persisted under JobsDir after every state change, so a manager opened
// over an existing directory requeues whatever a killed predecessor
// left unfinished and resumes collection from the last checkpoint.
type Manager struct {
	cfg   ManagerConfig
	store *Store

	mu     sync.Mutex
	jobs   map[string]*Job
	cancel map[string]context.CancelFunc // running jobs only
	seq    int

	queue chan string
	o     *traindObs

	// coord leases distributed jobs' units to workers; nil when
	// ManagerConfig.Coordinator is.
	coord *collectd.Coordinator

	// promoteBreaker trips after a run of consecutive canary failures;
	// while open, candidates skip the gate and are rejected fast.
	promoteBreaker *resilience.Breaker
}

// errPermanent marks failures that retrying cannot fix.
var errPermanent = errors.New("permanent")

// NewManager builds a manager over an existing (or fresh) jobs
// directory, loading every persisted job: terminal ones for history,
// non-terminal ones back onto the queue in submission order.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	cfg.fillDefaults()
	if cfg.Store == nil {
		return nil, fmt.Errorf("lifecycle: manager requires a model store")
	}
	if cfg.JobsDir == "" {
		return nil, fmt.Errorf("lifecycle: manager requires a jobs directory")
	}
	if err := os.MkdirAll(cfg.JobsDir, 0o755); err != nil {
		return nil, fmt.Errorf("lifecycle: %w", err)
	}
	m := &Manager{
		cfg:    cfg,
		store:  cfg.Store,
		jobs:   map[string]*Job{},
		cancel: map[string]context.CancelFunc{},
	}
	m.o = newTraindObs(m, obs.NewTracer(0, cfg.TraceSink))
	m.promoteBreaker = resilience.NewBreaker(resilience.BreakerConfig{
		Name:             "traind.promote",
		FailureThreshold: cfg.PromoteFailureThreshold,
		OpenTimeout:      cfg.PromoteCooldown,
	})
	m.promoteBreaker.Register(m.o.reg)
	m.o.reg.CounterFunc("napel_chaos_injected_total",
		"Faults fired by the installed chaos plan (0 when chaos is off).",
		func() float64 { return float64(faultpoint.TotalInjected()) })
	if cfg.Coordinator != nil {
		ccfg := *cfg.Coordinator
		ccfg.Registry, ccfg.Tracer = m.o.reg, m.o.tracer
		m.coord = collectd.NewCoordinator(ccfg)
	}
	requeue, err := m.recoverJobs()
	if err != nil {
		return nil, err
	}
	// Size the queue so recovered jobs never block construction.
	m.queue = make(chan string, cfg.QueueDepth+len(requeue))
	for _, id := range requeue {
		m.queue <- id
		m.cfg.Logf("lifecycle: requeued job %s after restart", id)
	}
	return m, nil
}

// recoverJobs loads persisted jobs and returns the non-terminal ones to
// requeue, in submission order — the restart half of the kill-and-resume
// contract. A job that died in collecting/training/evaluating goes back
// to queued; its checkpoint file (if any) makes the re-run skip every
// already-collected unit.
func (m *Manager) recoverJobs() ([]string, error) {
	entries, err := os.ReadDir(m.cfg.JobsDir)
	if err != nil {
		return nil, err
	}
	var requeue []string
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "j-") {
			continue
		}
		job, err := loadJobFile(filepath.Join(m.cfg.JobsDir, e.Name(), "job.json"))
		if err != nil {
			m.cfg.Logf("lifecycle: skipping unreadable job %s: %v", e.Name(), err)
			continue
		}
		var n int
		if _, err := fmt.Sscanf(job.ID, "j-%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
		if !job.State.Terminal() {
			job.State = StateQueued
			requeue = append(requeue, job.ID)
		}
		m.jobs[job.ID] = job
	}
	sort.Strings(requeue)
	for _, id := range requeue {
		if err := m.persistLocked(m.jobs[id]); err != nil {
			return nil, err
		}
	}
	return requeue, nil
}

func loadJobFile(path string) (*Job, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("lifecycle: job file %s: %w", path, err)
	}
	if j.ID == "" {
		return nil, fmt.Errorf("lifecycle: job file %s has no ID", path)
	}
	return &j, nil
}

func (m *Manager) jobDir(id string) string  { return filepath.Join(m.cfg.JobsDir, id) }
func (m *Manager) jobPath(id string) string { return filepath.Join(m.jobDir(id), "job.json") }
func (m *Manager) checkpointPath(id string) string {
	return filepath.Join(m.jobDir(id), "checkpoint.json")
}

// Submit validates the spec, assigns the next job ID, persists the job
// and enqueues it. It fails fast when the queue is full.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	job := &Job{
		ID:        fmt.Sprintf("j-%06d", m.seq),
		Spec:      spec,
		State:     StateQueued,
		CreatedAt: time.Now().UTC(),
	}
	if err := os.MkdirAll(m.jobDir(job.ID), 0o755); err != nil {
		m.seq--
		return nil, fmt.Errorf("lifecycle: %w", err)
	}
	if err := m.persistLocked(job); err != nil {
		m.seq--
		return nil, err
	}
	select {
	case m.queue <- job.ID:
	default:
		job.State = StateFailed
		job.Error = "submission queue full"
		m.persistLocked(job)
		m.jobs[job.ID] = job
		return nil, fmt.Errorf("lifecycle: submission queue full (%d pending)", len(m.queue))
	}
	m.jobs[job.ID] = job
	m.o.submitted.Inc()
	return job.clone(), nil
}

// Obs exposes the manager's metrics registry (for embedding callers and
// tests); scraping it is equivalent to GET /metrics on the admin API.
func (m *Manager) Obs() *obs.Registry { return m.o.reg }

// Tracer exposes the manager's span tracer, the backing store of
// /debug/traces on the admin API.
func (m *Manager) Tracer() *obs.Tracer { return m.o.tracer }

// Get returns a snapshot of one job.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, false
	}
	return j.clone(), true
}

// Jobs returns snapshots of every known job, oldest first.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.clone())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// QueueDepth reports jobs waiting for a worker.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// Cancel stops a job: a queued job flips straight to canceled, a
// running one has its context canceled and finishes as canceled once
// the pipeline unwinds. Canceling a terminal job is an error.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("lifecycle: no job %s", id)
	}
	if j.State.Terminal() {
		return fmt.Errorf("lifecycle: job %s already %s", id, j.State)
	}
	if cancel, running := m.cancel[id]; running {
		cancel()
		return nil
	}
	j.State = StateCanceled
	j.FinishedAt = time.Now().UTC()
	m.o.finishJob(StateCanceled)
	return m.persistLocked(j)
}

// Run executes queued jobs until ctx is canceled, then drains: running
// jobs observe the cancellation, checkpoint, and stay non-terminal so
// the next Run resumes them. Run returns once every worker has exited.
func (m *Manager) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for w := 0; w < m.cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case id := <-m.queue:
					m.runJob(ctx, id)
				}
			}
		}()
	}
	wg.Wait()
}

// persistLocked writes the job file atomically; callers hold m.mu.
func (m *Manager) persistLocked(j *Job) error {
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFileData(m.jobPath(j.ID), data, 0o644)
}

// setState transitions a job and persists it.
func (m *Manager) setState(j *Job, state JobState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.State = state
	if state.Terminal() {
		j.FinishedAt = time.Now().UTC()
		m.o.finishJob(state)
		if !j.StartedAt.IsZero() {
			m.o.duration.Observe(j.FinishedAt.Sub(j.StartedAt).Seconds())
		}
	}
	if err := m.persistLocked(j); err != nil {
		m.cfg.Logf("lifecycle: persisting job %s: %v", j.ID, err)
	}
}

// runJob drives one job through the pipeline with retries. Shutdown
// (root ctx canceled) leaves the job non-terminal for the next daemon;
// per-job cancellation finishes it as canceled.
func (m *Manager) runJob(ctx context.Context, id string) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	if !ok || job.State != StateQueued {
		m.mu.Unlock()
		return
	}
	jctx, cancel := context.WithCancel(obs.WithTracer(ctx, m.o.tracer))
	m.cancel[id] = cancel
	job.StartedAt = time.Now().UTC()
	m.o.stage("queue_wait", job.StartedAt.Sub(job.CreatedAt))
	m.mu.Unlock()
	defer func() {
		cancel()
		m.mu.Lock()
		delete(m.cancel, id)
		m.mu.Unlock()
	}()

	m.o.running.Inc()
	defer m.o.running.Dec()

	maxRetries := m.cfg.MaxRetries
	if job.Spec.MaxRetries != 0 {
		maxRetries = job.Spec.MaxRetries
		if maxRetries < 0 {
			maxRetries = 0
		}
	}

	// The retry loop is resilience.Do: jittered exponential backoff
	// seeded by the job ID (deterministic schedules under test, spread
	// in a fleet), Permanent short-circuiting for spec errors, and
	// context-aware sleeps so cancellation and shutdown cut the backoff.
	var seed uint64
	fmt.Sscanf(id, "j-%d", &seed)
	policy := resilience.Policy{
		MaxAttempts: maxRetries + 1,
		BaseDelay:   m.cfg.RetryBackoff,
		Multiplier:  2,
		Jitter:      0.2,
		Seed:        seed + 1,
		OnRetry: func(attempt int, err error, delay time.Duration) {
			m.o.retries.Inc()
			m.cfg.Logf("lifecycle: job %s attempt %d failed (%v), retrying in %s", id, attempt, err, delay)
		},
	}
	err := resilience.Do(jctx, policy, func(actx context.Context) error {
		m.mu.Lock()
		job.Attempt++
		m.mu.Unlock()
		err := m.runPipeline(actx, job)
		if err == nil || actx.Err() != nil {
			return err
		}
		m.mu.Lock()
		job.Error = err.Error()
		m.persistLocked(job)
		m.mu.Unlock()
		if errors.Is(err, errPermanent) {
			return resilience.Permanent(err)
		}
		return err
	})
	switch {
	case err == nil:
	case ctx.Err() != nil:
		// Daemon shutdown: leave the persisted state non-terminal;
		// recover() will requeue and the checkpoint will carry the
		// progress across.
		m.cfg.Logf("lifecycle: job %s interrupted by shutdown in state %s", id, job.State)
		m.mu.Lock()
		m.persistLocked(job)
		m.mu.Unlock()
	case jctx.Err() != nil:
		m.mu.Lock()
		job.Error = "canceled"
		m.mu.Unlock()
		m.setState(job, StateCanceled)
		m.cfg.Logf("lifecycle: job %s canceled", id)
	default:
		m.setState(job, StateFailed)
		m.cfg.Logf("lifecycle: job %s failed after %d attempt(s): %v", id, job.Attempt, err)
	}
}

// runPipeline is one attempt: collect (checkpointed) → train → store →
// evaluate → gate → promote/reject. Each attempt is one trace: a "job"
// root span with one child per pipeline stage, mirrored into the
// napel_traind_job_stage_seconds histogram. Collection runs under the
// collect span's context, so the engine's per-unit spans nest inside it.
func (m *Manager) runPipeline(ctx context.Context, job *Job) (err error) {
	ctx, jobSpan := obs.StartSpan(ctx, "job")
	jobSpan.SetAttr("id", job.ID)
	jobSpan.SetAttrInt("attempt", int64(job.Attempt))
	defer func() {
		jobSpan.SetError(err)
		jobSpan.End()
	}()

	spec := job.Spec
	kernels, err := spec.kernels()
	if err != nil {
		return fmt.Errorf("%w: %v", errPermanent, err)
	}
	opts, err := spec.options()
	if err != nil {
		return fmt.Errorf("%w: %v", errPermanent, err)
	}
	// The collection engine reports onto the manager's registry, so one
	// /metrics scrape covers the job pipeline and the engine inside it.
	opts.Metrics = m.o.reg
	seed := spec.seed()
	frac := spec.HoldoutFrac
	if frac == 0 {
		frac = m.cfg.HoldoutFrac
	}

	// Distributed jobs delegate unit execution to the worker fleet; the
	// engine machinery (and so the assembled bytes) is identical.
	if spec.Distributed {
		if m.coord == nil {
			return fmt.Errorf("%w: job requests distributed collection but the daemon has no coordinator", errPermanent)
		}
		opts.Executor = m.coord.Executor()
	}

	// Collect, resuming from the job's checkpoint when one exists.
	// Active jobs run the uncertainty-driven loop instead.
	m.setState(job, StateCollecting)
	t0 := time.Now()
	cctx, cspan := obs.StartSpan(ctx, "collect")
	var td *napel.TrainingData
	if spec.Active {
		td, err = m.collectActive(cctx, job, kernels, opts, frac)
	} else {
		td, err = m.collect(cctx, job, kernels, opts)
	}
	cspan.SetError(err)
	cspan.End()
	m.o.stage("collect", time.Since(t0))
	if err != nil {
		return err
	}

	// Train on the full dataset. A saved model holds no wall-clock
	// field, so its bytes are a pure function of (data, spec): a resumed
	// job's model is byte-identical to an uninterrupted one and
	// content-addresses to the same blob.
	m.setState(job, StateTraining)
	t0 = time.Now()
	_, tspan := obs.StartSpan(ctx, "train")
	var pred *napel.Predictor
	if spec.Tune {
		pred, err = napel.TrainTuned(td, seed)
	} else {
		pred, err = napel.TrainWith(td, spec.trainer(), seed)
	}
	tspan.SetError(err)
	tspan.End()
	m.o.stage("train", time.Since(t0))
	if err != nil {
		return err
	}

	var modelBuf, dataBuf bytes.Buffer
	if err := pred.Save(&modelBuf); err != nil {
		return err
	}
	if err := napel.SaveTrainingData(&dataBuf, td); err != nil {
		return err
	}
	modelHash, err := m.store.PutModel(modelBuf.Bytes())
	if err != nil {
		return err
	}

	// Evaluate the candidate on the deterministic holdout fold.
	m.setState(job, StateEvaluating)
	t0 = time.Now()
	_, espan := obs.StartSpan(ctx, "evaluate")
	metrics, err := napel.EvaluateHoldout(td, spec.trainer(), frac, seed)
	espan.SetError(err)
	espan.End()
	m.o.stage("evaluate", time.Since(t0))
	if err != nil {
		return fmt.Errorf("%w: %v", errPermanent, err)
	}

	manifest := &Manifest{
		ModelHash: modelHash,
		DataHash:  HashBytes(dataBuf.Bytes()),
		Samples:   len(td.Samples),
		Kernels:   spec.Kernels,
		Params:    spec.trainer().Name(),
		Seed:      seed,
		JobID:     job.ID,
		Build:     buildVersion(),
		Metrics:   &metrics,
	}
	if err := m.store.PutManifest(manifest); err != nil {
		return err
	}

	// A run of consecutive canary failures opens the promotion breaker;
	// while open, candidates are rejected without re-scoring the
	// incumbent, so a stream of bad candidates cannot flap the serving
	// pointer. The next pipeline after the cooldown probes the gate again.
	if berr := m.promoteBreaker.Allow(); berr != nil {
		m.mu.Lock()
		job.Samples = len(td.Samples)
		job.ManifestID = manifest.ID
		job.Metrics = &metrics
		job.Error = ""
		m.mu.Unlock()
		m.removeCheckpoint(job.ID)
		m.setState(job, StateRejected)
		m.o.rejections.Inc()
		m.cfg.Logf("lifecycle: job %s rejected without gating: %v", job.ID, berr)
		return nil
	}

	t0 = time.Now()
	_, gspan := obs.StartSpan(ctx, "gate")
	promote, baseline, incumbentID, err := m.gate(td, metrics, frac, seed)
	gspan.SetAttr("verdict", gateVerdict(promote))
	gspan.SetError(err)
	gspan.End()
	m.o.stage("gate", time.Since(t0))
	if err != nil {
		m.promoteBreaker.RecordFailure()
		return err
	}
	m.mu.Lock()
	job.Samples = len(td.Samples)
	job.ManifestID = manifest.ID
	job.Metrics = &metrics
	job.GateBaseline = baseline
	job.GateIncumbent = incumbentID
	job.Error = ""
	m.mu.Unlock()

	if !promote {
		m.promoteBreaker.RecordFailure()
		m.removeCheckpoint(job.ID)
		m.setState(job, StateRejected)
		m.o.rejections.Inc()
		m.cfg.Logf("lifecycle: job %s rejected by canary gate: candidate %.4f vs incumbent %.4f (tolerance %.2f)",
			job.ID, metrics.Combined(), baseline, m.cfg.GateTolerance)
		return nil
	}
	if err := faultpoint.Inject(ctx, fpPromote); err != nil {
		m.promoteBreaker.RecordFailure()
		return err
	}
	if err := m.store.Promote(manifest.ID); err != nil {
		m.promoteBreaker.RecordFailure()
		return err
	}
	m.promoteBreaker.RecordSuccess()
	m.removeCheckpoint(job.ID)
	m.setState(job, StatePromoted)
	m.o.promotions.Inc()
	m.cfg.Logf("lifecycle: job %s promoted %s (model %s, holdout %.4f)",
		job.ID, manifest.ID, modelHash[:16], metrics.Combined())
	return nil
}

// collect runs the checkpointed collection stage. OnUnit fires under
// the engine's lock after every completed unit; the manager updates
// progress counters every time and rewrites the checkpoint file at most
// once per CheckpointEvery. On cancellation the partial dataset the
// engine hands back is checkpointed before returning, so even progress
// inside the throttle window survives a graceful shutdown (a SIGKILL
// falls back to the last throttled write).
func (m *Manager) collect(ctx context.Context, job *Job, kernels []workload.Kernel, opts napel.Options) (*napel.TrainingData, error) {
	ckPath := m.checkpointPath(job.ID)
	prior, err := napel.LoadTrainingDataFile(ckPath)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			// Unreadable or incompatible checkpoint: start over rather
			// than fail the job.
			m.cfg.Logf("lifecycle: job %s: discarding unusable checkpoint: %v", job.ID, err)
			m.removeCheckpoint(job.ID)
		}
		prior = nil
	}

	var (
		lastWrite time.Time
		executed  int
	)
	ck := &napel.CollectCheckpoint{
		Prior: prior,
		OnUnit: func(done, total int, snapshot func() *napel.TrainingData) {
			executed++
			m.mu.Lock()
			job.UnitsDone = done
			job.UnitsTotal = total
			job.UnitsRestored = done - executed
			m.mu.Unlock()
			now := time.Now()
			if done < total && m.cfg.CheckpointEvery > 0 && now.Sub(lastWrite) < m.cfg.CheckpointEvery {
				return
			}
			lastWrite = now
			if err := napel.WriteTrainingDataFile(ckPath, snapshot()); err != nil {
				m.cfg.Logf("lifecycle: job %s: checkpoint write failed: %v", job.ID, err)
			} else {
				m.o.ckpWrite.ObserveSince(now)
				m.o.markCheckpoint(now)
			}
		},
	}

	td, err := napel.CollectResumeContext(ctx, kernels, opts, ck)
	if err != nil {
		if errors.Is(err, context.Canceled) && td != nil && len(td.Samples) > 0 {
			// Graceful stop: persist whatever the throttle window held
			// back so the next attempt resumes from here.
			t0 := time.Now()
			if werr := napel.WriteTrainingDataFile(ckPath, td); werr == nil {
				m.o.ckpWrite.ObserveSince(t0)
				m.o.markCheckpoint(t0)
			}
		}
		if prior != nil && !errors.Is(err, context.Canceled) && strings.Contains(err.Error(), "resume checkpoint") {
			// The checkpoint's feature layout no longer matches this
			// build; drop it and let the retry loop run a clean pass.
			m.removeCheckpoint(job.ID)
		}
		return nil, err
	}
	return td, nil
}

// collectActive runs the active-learning collection loop for jobs
// submitted with active: true. Round reports land on the job record
// (UnitsDone/UnitsTotal track simulated units against the pool, Rounds
// counts completed rounds) and are persisted per round — coarser than
// the per-unit checkpoints of exhaustive collection, but rounds are the
// loop's natural unit of progress and a retried active job re-selects
// the identical sequence anyway (selection is a pure function of the
// seed). Rounds score on frac, the holdout fraction the gate uses, so
// TargetMRE stopping and the gate measure the same thing.
func (m *Manager) collectActive(ctx context.Context, job *Job, kernels []workload.Kernel, opts napel.Options, frac float64) (*napel.TrainingData, error) {
	spec := job.Spec
	acfg := collectd.ActiveConfig{
		Seed:        spec.seed(),
		SeedUnits:   spec.ActiveSeedUnits,
		RoundUnits:  spec.ActiveRoundUnits,
		MaxUnits:    spec.ActiveMaxUnits,
		TargetMRE:   spec.ActiveTargetMRE,
		HoldoutFrac: frac,
		Trainer:     spec.trainer(),
		Logf:        m.cfg.Logf,
		OnRound: func(r collectd.RoundReport) {
			m.mu.Lock()
			job.UnitsDone = r.UnitsSimulated
			job.UnitsTotal = r.UnitsSimulated + r.PoolRemaining
			job.Rounds = r.Round + 1
			m.persistLocked(job)
			m.mu.Unlock()
		},
	}
	td, report, err := collectd.ActiveCollect(ctx, kernels, opts, acfg)
	if err != nil {
		return nil, err
	}
	m.cfg.Logf("lifecycle: job %s active collection simulated %d/%d units over %d rounds (final holdout MRE %.4f)",
		job.ID, report.UnitsSimulated, report.PoolSize, len(report.Rounds), report.FinalMRE)
	return td, nil
}

// gate decides promotion: the candidate's holdout error must be within
// GateTolerance of the incumbent's. The baseline is the error recorded
// in the incumbent's manifest — both numbers then measure a model's
// generalization from its own training distribution. An incumbent
// without recorded metrics (e.g. ingested from outside the daemon) is
// scored live on the candidate's holdout fold instead. No incumbent
// means automatic promotion.
func (m *Manager) gate(td *napel.TrainingData, cand napel.HoldoutMetrics, frac float64, seed uint64) (promote bool, baseline float64, incumbentID string, err error) {
	inc, err := m.store.Current()
	if errors.Is(err, ErrNoCurrent) {
		return true, 0, "", nil
	}
	if err != nil {
		return false, 0, "", err
	}
	if inc.Metrics != nil {
		baseline = inc.Metrics.Combined()
	} else {
		// ReadModel verifies the blob against its content address and
		// quarantines corruption, so a damaged incumbent fails the gate
		// loudly instead of silently scoring garbage.
		data, err := m.store.ReadModel(inc.ModelHash)
		if err != nil {
			return false, 0, inc.ID, err
		}
		pred, err := napel.LoadPredictor(data)
		if err != nil {
			return false, 0, inc.ID, err
		}
		im, err := napel.EvaluatePredictorHoldout(pred, td, frac, seed)
		if err != nil {
			return false, 0, inc.ID, err
		}
		baseline = im.Combined()
	}
	return cand.Combined() <= baseline*m.cfg.GateTolerance, baseline, inc.ID, nil
}

func (m *Manager) removeCheckpoint(id string) {
	if err := os.Remove(m.checkpointPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		m.cfg.Logf("lifecycle: removing checkpoint for %s: %v", id, err)
	}
}

func gateVerdict(promote bool) string {
	if promote {
		return "promote"
	}
	return "reject"
}
