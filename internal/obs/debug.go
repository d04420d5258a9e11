package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// traceGroup is one trace in a /debug/traces response: its spans,
// oldest first, with the root (parentless) span determining the
// trace-level name and duration used by the filters.
type traceGroup struct {
	TraceID         string    `json:"trace_id"`
	Name            string    `json:"name,omitempty"`
	Start           time.Time `json:"start"`
	DurationSeconds float64   `json:"duration_seconds"`
	// Orphan marks a trace with no local root: every span has a parent,
	// but the parent span never arrived in this process's ring — the
	// normal shape for a trace that began in another process (a remote
	// caller propagated its context here) or whose root was evicted.
	Orphan bool         `json:"orphan,omitempty"`
	Spans  []SpanRecord `json:"spans"`
}

// TracesHandler serves the tracer's retained spans as JSON, grouped
// into traces, newest first. Query parameters:
//
//	name=S            only traces containing a span named S
//	min_duration=D    only traces whose root span lasted >= D
//	                  (a Go duration: 50ms, 1.5s, ...)
//	limit=N           at most N traces (default 50)
func (t *Tracer) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var minDur time.Duration
		if v := q.Get("min_duration"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				http.Error(w, "bad min_duration: "+err.Error(), http.StatusBadRequest)
				return
			}
			minDur = d
		}
		limit := 50
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			limit = n
		}
		nameFilter := q.Get("name")

		byTrace := map[string]*traceGroup{}
		var order []string
		for _, rec := range t.Snapshot() {
			g, ok := byTrace[rec.TraceID]
			if !ok {
				g = &traceGroup{TraceID: rec.TraceID}
				byTrace[rec.TraceID] = g
				order = append(order, rec.TraceID)
			}
			g.Spans = append(g.Spans, rec)
		}
		groups := make([]*traceGroup, 0, len(order))
		for _, id := range order {
			g := byTrace[id]
			sort.SliceStable(g.Spans, func(i, j int) bool {
				return g.Spans[i].Start.Before(g.Spans[j].Start)
			})
			root := -1
			for i, s := range g.Spans {
				if s.ParentID == "" {
					root = i
					break
				}
			}
			if root < 0 {
				// No local root: the parent lives in another process (or
				// was evicted). Surface the trace anyway, rooted at the
				// earliest span whose parent is not in this group, so
				// remote-parented traces pass the min_duration filter
				// instead of silently vanishing.
				g.Orphan = true
				local := make(map[string]bool, len(g.Spans))
				for _, s := range g.Spans {
					local[s.SpanID] = true
				}
				for i, s := range g.Spans {
					if !local[s.ParentID] {
						root = i
						break
					}
				}
				if root < 0 {
					root = 0
				}
			}
			g.Name = g.Spans[root].Name
			g.Start = g.Spans[root].Start
			g.DurationSeconds = g.Spans[root].DurationSeconds
			if nameFilter != "" && !containsSpan(g.Spans, nameFilter) {
				continue
			}
			if minDur > 0 && g.DurationSeconds < minDur.Seconds() {
				continue
			}
			groups = append(groups, g)
		}
		sort.SliceStable(groups, func(i, j int) bool { return groups[i].Start.After(groups[j].Start) })
		if len(groups) > limit {
			groups = groups[:limit]
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"count":  len(groups),
			"traces": groups,
		})
	})
}

func containsSpan(spans []SpanRecord, name string) bool {
	for _, s := range spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// RuntimeHandler serves a point-in-time goroutine/GC/heap snapshot as
// JSON — the quick "is this process healthy" view; /debug/pprof has the
// deep profiles.
func RuntimeHandler() http.Handler {
	start := time.Now()
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"goroutines":           runtime.NumGoroutine(),
			"gomaxprocs":           runtime.GOMAXPROCS(0),
			"num_cpu":              runtime.NumCPU(),
			"go_version":           runtime.Version(),
			"uptime_seconds":       time.Since(start).Seconds(),
			"heap_alloc_bytes":     ms.HeapAlloc,
			"heap_sys_bytes":       ms.HeapSys,
			"heap_objects":         ms.HeapObjects,
			"stack_inuse_bytes":    ms.StackInuse,
			"gc_cycles":            ms.NumGC,
			"gc_pause_total_ns":    ms.PauseTotalNs,
			"gc_cpu_fraction":      ms.GCCPUFraction,
			"last_gc":              time.Unix(0, int64(ms.LastGC)),
			"next_gc_target_bytes": ms.NextGC,
		})
	})
}

// MountDebug attaches the runtime-introspection surface to an admin
// mux: /debug/traces (the tracer's ring as filterable JSON, when t is
// non-nil), /debug/pprof/* and /debug/runtime.
func MountDebug(mux *http.ServeMux, t *Tracer) {
	if t != nil {
		mux.Handle("/debug/traces", t.TracesHandler())
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/runtime", RuntimeHandler())
}
