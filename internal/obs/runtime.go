package obs

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// memReader caches one runtime.MemStats read per scrape burst: the
// registry evaluates each registered func independently, and
// ReadMemStats briefly stops the world, so the process metrics below
// share a snapshot no older than memStatsTTL instead of paying four
// stop-the-world reads per scrape.
type memReader struct {
	mu sync.Mutex
	at time.Time
	ms runtime.MemStats
}

const memStatsTTL = 50 * time.Millisecond

func (m *memReader) read() runtime.MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if time.Since(m.at) > memStatsTTL {
		runtime.ReadMemStats(&m.ms)
		m.at = time.Now()
	}
	return m.ms
}

// RegisterRuntimeMetrics exposes the Go runtime's allocation, GC and
// scheduler numbers, and the process's CPU time, as napel_process_*
// series on r. These are the
// denominators of performance attribution: napel-loadgen scrapes them
// before and after a run and divides the deltas by the requests it
// issued, turning "the server allocates too much" into a per-request
// number a BENCH report can gate on.
func RegisterRuntimeMetrics(r *Registry) {
	mr := &memReader{}
	r.CounterFunc("napel_process_alloc_bytes_total",
		"Cumulative bytes allocated on the heap (runtime.MemStats.TotalAlloc).",
		func() float64 { return float64(mr.read().TotalAlloc) })
	r.CounterFunc("napel_process_mallocs_total",
		"Cumulative heap objects allocated (runtime.MemStats.Mallocs).",
		func() float64 { return float64(mr.read().Mallocs) })
	r.CounterFunc("napel_process_gc_cycles_total",
		"Completed garbage-collection cycles (runtime.MemStats.NumGC).",
		func() float64 { return float64(mr.read().NumGC) })
	r.CounterFunc("napel_process_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.",
		func() float64 { return float64(mr.read().PauseTotalNs) / 1e9 })
	r.GaugeFunc("napel_process_heap_alloc_bytes",
		"Bytes of live heap (runtime.MemStats.HeapAlloc).",
		func() float64 { return float64(mr.read().HeapAlloc) })
	r.GaugeFunc("napel_process_goroutines",
		"Goroutines currently live.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.CounterFunc("napel_process_cpu_seconds_total",
		"User plus system CPU time the process has used (getrusage RUSAGE_SELF).",
		processCPUSeconds)
}

// processCPUSeconds returns the user plus system CPU time the process
// has used, or 0 if getrusage fails, which it does only for an invalid
// argument.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
