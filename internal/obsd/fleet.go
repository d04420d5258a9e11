package obsd

import (
	"net/http"
	"sort"
	"strconv"
	"time"

	"napel/internal/httpd"
	"napel/internal/obs"
)

// fleetSpan is one span in a /debug/fleet tree: the pushed record, the
// process it came from, and its children across every process.
type fleetSpan struct {
	Process string `json:"process"`
	obs.SpanRecord
	Children []*fleetSpan `json:"children,omitempty"`
}

// fleetTrace is one cross-process trace tree.
type fleetTrace struct {
	TraceID         string    `json:"trace_id"`
	Name            string    `json:"name"`
	Start           time.Time `json:"start"`
	DurationSeconds float64   `json:"duration_seconds"`
	SpanCount       int       `json:"span_count"`
	ProcessCount    int       `json:"process_count"`
	Processes       []string  `json:"processes"`
	// Spans holds the tree roots; a root is any span whose parent never
	// arrived (including the cross-process case where it simply lives
	// upstream of everything pushed so far).
	Spans []*fleetSpan `json:"spans"`
}

// sloBurn is one objective's burn rate: the observed bad fraction
// divided by the error budget, so 1.0 means "burning budget exactly as
// fast as the objective allows" and anything above is a page.
type sloBurn struct {
	Objective   float64 `json:"objective"`
	Total       float64 `json:"total"`
	Bad         float64 `json:"bad"`
	BadFraction float64 `json:"bad_fraction"`
	BurnRate    float64 `json:"burn_rate"`
	// ThresholdSeconds is set on the latency objective only.
	ThresholdSeconds float64 `json:"threshold_seconds,omitempty"`
}

// fleetHandler serves the aggregated view: per-trace cross-process
// trees (newest first), the SLO burn rates computed from the merged
// series, and per-target scrape health. Query parameters:
//
//	trace_id=ID  only that trace
//	name=S       only traces containing a span named S
//	limit=N      at most N traces (default 20)
func (a *Aggregator) fleetHandler(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 20
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	traces := a.assembleTraces(q.Get("trace_id"), q.Get("name"))
	if len(traces) > limit {
		traces = traces[:limit]
	}

	scrapes := a.snapshotScrapes()
	type targetView struct {
		Target
		Up                    bool      `json:"up"`
		LastScrape            time.Time `json:"last_scrape"`
		ScrapeDurationSeconds float64   `json:"scrape_duration_seconds"`
		Error                 string    `json:"error,omitempty"`
	}
	targets := make([]targetView, 0, len(scrapes))
	for _, s := range scrapes {
		targets = append(targets, targetView{
			Target: s.target, Up: s.up, LastScrape: s.at,
			ScrapeDurationSeconds: s.dur.Seconds(), Error: s.err,
		})
	}

	httpd.WriteJSON(w, http.StatusOK, map[string]any{
		"targets":     targets,
		"slo":         a.sloView(scrapes),
		"trace_count": len(traces),
		"traces":      traces,
	})
}

// assembleTraces groups the pushed spans by trace id and links children
// to parents across process boundaries.
func (a *Aggregator) assembleTraces(traceFilter, nameFilter string) []*fleetTrace {
	spans := a.snapshotSpans()
	byTrace := map[string][]*fleetSpan{}
	var order []string
	for i := range spans {
		ps := &spans[i]
		if traceFilter != "" && ps.TraceID != traceFilter {
			continue
		}
		if _, ok := byTrace[ps.TraceID]; !ok {
			order = append(order, ps.TraceID)
		}
		byTrace[ps.TraceID] = append(byTrace[ps.TraceID], &fleetSpan{Process: ps.Process, SpanRecord: ps.SpanRecord})
	}

	var out []*fleetTrace
	for _, id := range order {
		group := byTrace[id]
		if nameFilter != "" && !groupContains(group, nameFilter) {
			continue
		}
		sort.SliceStable(group, func(i, j int) bool { return group[i].Start.Before(group[j].Start) })
		byID := make(map[string]*fleetSpan, len(group))
		for _, s := range group {
			// First pushed record wins on duplicate ids (a re-pushed
			// batch after an aggregator restart).
			if _, ok := byID[s.SpanID]; !ok {
				byID[s.SpanID] = s
			}
		}
		tr := &fleetTrace{TraceID: id}
		procs := map[string]bool{}
		for _, s := range group {
			if byID[s.SpanID] != s {
				continue // duplicate
			}
			tr.SpanCount++
			procs[s.Process] = true
			if parent, ok := byID[s.ParentID]; ok && s.ParentID != "" && parent != s {
				parent.Children = append(parent.Children, s)
			} else {
				tr.Spans = append(tr.Spans, s)
			}
		}
		for p := range procs {
			tr.Processes = append(tr.Processes, p)
		}
		sort.Strings(tr.Processes)
		tr.ProcessCount = len(tr.Processes)
		if len(tr.Spans) > 0 {
			root := tr.Spans[0]
			tr.Name = root.Name
			tr.Start = root.Start
			tr.DurationSeconds = root.DurationSeconds
		}
		out = append(out, tr)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

func groupContains(group []*fleetSpan, name string) bool {
	for _, s := range group {
		if s.Name == name {
			return true
		}
	}
	return false
}

// sloView computes availability and latency burn rates over the merged
// serve series: availability from the 5xx fraction of
// napel_serve_requests_total, latency from the fraction of
// napel_serve_request_duration_seconds observations above the
// configured threshold bucket. Both are cumulative since process start
// — the scrape cadence is too young for windowed burn, and a restart
// resets the window, which is the honest reading for a bench fleet.
func (a *Aggregator) sloView(scrapes []*scrape) map[string]sloBurn {
	var total, bad, durCount, durUnder float64
	for _, s := range scrapes {
		if !s.up || s.exp == nil {
			continue
		}
		for _, sample := range s.exp.Samples {
			switch sample.Name {
			case "napel_serve_requests_total":
				total += sample.Value
				if labelValue(sample, "class") == "5xx" {
					bad += sample.Value
				}
			case "napel_serve_request_duration_seconds_count":
				durCount += sample.Value
			case "napel_serve_request_duration_seconds_bucket":
				if le, err := strconv.ParseFloat(labelValue(sample, "le"), 64); err == nil && le == a.cfg.SLOLatencySeconds {
					durUnder += sample.Value
				}
			}
		}
	}
	avail := sloBurn{Objective: a.cfg.SLOAvailability, Total: total, Bad: bad}
	if total > 0 {
		avail.BadFraction = bad / total
		avail.BurnRate = avail.BadFraction / (1 - avail.Objective)
	}
	lat := sloBurn{
		Objective:        a.cfg.SLOLatencyObjective,
		ThresholdSeconds: a.cfg.SLOLatencySeconds,
		Total:            durCount,
		Bad:              durCount - durUnder,
	}
	if durCount > 0 {
		lat.BadFraction = lat.Bad / durCount
		lat.BurnRate = lat.BadFraction / (1 - lat.Objective)
	}
	return map[string]sloBurn{"availability": avail, "latency": lat}
}

func labelValue(s obs.Sample, name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}
