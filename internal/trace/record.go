package trace

// InstSource is a pull-style reader over a dynamic instruction trace —
// the abstraction the multi-PE simulator consumes. Stream (a live
// generator in a goroutine) and Recording.Source (an in-memory replay)
// both satisfy it, which is what lets one recorded kernel execution feed
// many simulator runs.
type InstSource interface {
	// Next returns the next instruction in program order; ok is false
	// once the trace is exhausted.
	Next() (inst Inst, ok bool)
	// Count reports the number of instructions emitted by the underlying
	// generator so far; it equals the trace length once the source is
	// exhausted.
	Count() uint64
	// Coverage reports the generator's traced fraction, meaningful once
	// the source is exhausted.
	Coverage() float64
	// Close releases any resources when abandoning the source early; it
	// is safe to call multiple times and after exhaustion.
	Close()
}

// Recording is a materialized trace: the instructions one generator
// emitted under a budget, plus the coverage it reported. Kernels are
// deterministic, so a recording made once can replace any number of
// re-executions of the same (kernel, input, shard) — the single-pass
// optimization behind napel's data-collection engine. Instructions are
// 24 bytes each, so a budget-capped recording is small (a 1M-instruction
// budget is at most ~24 MB across all shards).
//
// A Recording is immutable after Record returns and safe for concurrent
// use; each Source call returns an independent iterator.
type Recording struct {
	insts    []Inst
	coverage float64
}

// Record runs generator to completion synchronously (no goroutine, no
// channel) with a budget-capped tracer and materializes the emitted
// trace. The generator must honor tracer.Stop, exactly as with NewStream;
// for the same budget the recorded instructions, count and coverage are
// bit-identical to what a Stream would deliver.
func Record(budget uint64, generator func(*Tracer)) *Recording {
	r := &Recording{}
	if budget > 0 && budget < 1<<20 {
		r.insts = make([]Inst, 0, budget)
	}
	t := NewTracer(budget, ConsumerFunc(func(i Inst) {
		r.insts = append(r.insts, i)
	}))
	generator(t)
	r.coverage = t.Coverage()
	return r
}

// Len returns the number of recorded instructions.
func (r *Recording) Len() int { return len(r.insts) }

// Coverage returns the traced fraction the generator reported.
func (r *Recording) Coverage() float64 { return r.coverage }

// Source returns a fresh pull iterator over the recording. Unlike a
// Stream it involves no goroutine, so replaying a recording to a
// simulator costs only the consumption, not the generation.
func (r *Recording) Source() InstSource { return &replaySource{rec: r} }

// Replay pushes the recorded trace through the given consumers once, in
// program order — the push-side counterpart of Source.
func (r *Recording) Replay(consumers ...Consumer) {
	for _, inst := range r.insts {
		for _, c := range consumers {
			c.OnInst(inst)
		}
	}
}

// replaySource iterates a Recording.
type replaySource struct {
	rec *Recording
	pos int
}

func (s *replaySource) Next() (Inst, bool) {
	if s.pos >= len(s.rec.insts) {
		return Inst{}, false
	}
	inst := s.rec.insts[s.pos]
	s.pos++
	return inst, true
}

func (s *replaySource) Count() uint64     { return uint64(s.pos) }
func (s *replaySource) Coverage() float64 { return s.rec.coverage }
func (s *replaySource) Close()            { s.pos = len(s.rec.insts) }

// Insts exposes the backing instruction slice for bulk consumers that
// track their own position (and so skip the per-instruction Next call);
// mixing Insts with Next on the same source is not supported. The slice
// is shared with the Recording and must not be mutated.
func (s *replaySource) Insts() []Inst { return s.rec.insts }

// Sink is one consumer's slot in a Fanout run: the consumer, its own
// instruction cap, and (after Fanout returns) how many instructions it
// received and its effective coverage.
type Sink struct {
	C Consumer
	// Budget is the per-sink instruction cap; 0 means the whole run.
	// The sink(s) whose budget is the run's largest also receive the
	// whole run — including the soft-budget overshoot a kernel emits
	// before its next Stop check — so their view is bit-identical to a
	// dedicated execution at that budget. Smaller budgets are hard caps.
	Budget uint64

	// Count is the number of instructions delivered to C.
	Count uint64
	// Coverage is the sink's effective traced fraction: the run's
	// coverage, scaled down by the share of the run the sink saw when
	// its budget cut it off early. A sink that received the whole run
	// gets the run's coverage exactly.
	Coverage float64
}

// Fanout executes generator once and feeds every sink from that single
// pass, honoring each sink's own budget — the "one execution, N
// consumers" runner DESIGN.md promises. The run's overall budget is the
// largest sink budget (unlimited if any sink is unlimited), so the most
// demanding consumer sees as much of the trace as it would have in a
// dedicated run; cheaper consumers stop receiving at their own caps and
// get a proportionally scaled coverage estimate instead.
//
// It returns the total emitted instruction count and the run's coverage.
func Fanout(generator func(*Tracer), sinks ...*Sink) (total uint64, coverage float64) {
	budget := uint64(0)
	unlimited := false
	for _, s := range sinks {
		if s.Budget == 0 {
			unlimited = true
		}
		if s.Budget > budget {
			budget = s.Budget
		}
	}
	if unlimited {
		budget = 0
	}
	counts := make([]uint64, len(sinks))
	t := NewTracer(budget, ConsumerFunc(func(i Inst) {
		for j, s := range sinks {
			// Budget-defining sinks ride the whole run (overshoot
			// included) so they match a dedicated execution exactly.
			if s.Budget == 0 || (budget != 0 && s.Budget >= budget) || counts[j] < s.Budget {
				s.C.OnInst(i)
				counts[j]++
			}
		}
	}))
	generator(t)
	total, coverage = t.Count(), t.Coverage()
	for j, s := range sinks {
		s.Count = counts[j]
		s.Coverage = coverage
		if total > 0 && counts[j] < total {
			s.Coverage = coverage * float64(counts[j]) / float64(total)
		}
	}
	return total, coverage
}
