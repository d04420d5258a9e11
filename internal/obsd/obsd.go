// Package obsd is the fleet observability aggregation plane behind
// cmd/napel-obsd: it pull-scrapes /metrics from a static list of fleet
// processes and re-exports the merged series under job/instance labels
// (the Monarch-style pull-and-aggregate model), ingests span batches
// pushed by the processes' tracers, and assembles cross-process trace
// trees plus an SLO burn-rate view on /debug/fleet. Everything is
// stdlib + internal/obs: the parser it scrapes with is the same one
// napel-loadgen uses.
package obsd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"napel/internal/httpd"
	"napel/internal/obs"
)

// Target is one scrape endpoint: a fleet process whose /metrics the
// aggregator merges under the given job/instance identity.
type Target struct {
	Job      string `json:"job"`
	Instance string `json:"instance"`
	URL      string `json:"url"`
}

// LoadTargetsFile reads a targets file: one entry per line in the same
// job=URL / bare-URL syntax -targets uses (commas within a line also
// work), with blank lines and #-comments ignored. The file is the
// dynamic half of target discovery — the aggregator re-reads it
// periodically and diffs the set, so fleet churn (replicas joining a
// gate, workers coming and going) is a file edit away from being
// scraped, no restart.
func LoadTargetsFile(path string) ([]Target, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obsd: %w", err)
	}
	var out []Target
	for ln, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		parsed, err := ParseTargets(line)
		if err != nil {
			return nil, fmt.Errorf("obsd: %s line %d: %w", path, ln+1, err)
		}
		out = append(out, parsed...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("obsd: no targets in %s", path)
	}
	return out, nil
}

// ParseTargets decodes a -targets flag value: comma-separated entries,
// each either job=URL or a bare URL (job defaults to "napel"). The
// instance label is the URL's host:port.
func ParseTargets(spec string) ([]Target, error) {
	var out []Target
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		job := "napel"
		rest := entry
		// job=http://host:port — split on the first '=' only when it
		// precedes the scheme separator, so bare URLs with query
		// strings survive.
		if i := strings.IndexByte(entry, '='); i > 0 && !strings.Contains(entry[:i], "/") {
			job, rest = entry[:i], entry[i+1:]
		}
		u, err := url.Parse(rest)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("obsd: target %q: need job=http://host:port or a bare URL", entry)
		}
		out = append(out, Target{Job: job, Instance: u.Host, URL: strings.TrimRight(rest, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("obsd: no targets in %q", spec)
	}
	return out, nil
}

// Config configures an Aggregator.
type Config struct {
	// Targets is the static target set; it is always scraped, whatever
	// TargetsFile says.
	Targets []Target
	// TargetsFile, when set, names a file of additional targets (see
	// LoadTargetsFile) loaded at construction and re-read every
	// TargetsReload; changes are diffed into the scrape set without a
	// restart. A transient read failure keeps the current set.
	TargetsFile string
	// TargetsReload is the TargetsFile re-read period (default 10s).
	TargetsReload time.Duration
	// ScrapeInterval between scrape rounds (default 2s).
	ScrapeInterval time.Duration
	// SpanCap bounds the retained pushed spans (default 16384); the
	// oldest are evicted and counted.
	SpanCap int
	// SLOAvailability is the availability objective for the burn-rate
	// view (default 0.999).
	SLOAvailability float64
	// SLOLatencySeconds is the latency threshold; it must align with a
	// serve histogram bucket bound to be exact (default 0.25).
	SLOLatencySeconds float64
	// SLOLatencyObjective is the fraction of requests that should land
	// under the threshold (default 0.99).
	SLOLatencyObjective float64
	// Client defaults to a dedicated client with a 5s timeout.
	Client *http.Client
	Logf   func(format string, args ...any)
}

// maxBatchBytes bounds one POST /v1/spans body.
const maxBatchBytes = 4 << 20

// scrape is the latest state of one target.
type scrape struct {
	target Target
	exp    *obs.Exposition
	up     bool
	err    string
	at     time.Time
	dur    time.Duration
}

// procSpan is one ingested span plus the process that pushed it — the
// cross-process join key /debug/fleet trees are built from.
type procSpan struct {
	Process string `json:"process"`
	obs.SpanRecord
}

// Aggregator scrapes, merges, and ingests. Construct with New, run the
// scrape loop with Run, and mount Handler on a listener.
type Aggregator struct {
	cfg Config
	reg *obs.Registry

	// static holds the construction-time targets, which survive every
	// TargetsFile reload.
	static []Target

	scrapeMu sync.Mutex
	scrapes  map[string]*scrape // keyed job+"\x1f"+instance

	spanMu   sync.Mutex
	spans    []procSpan // ring, oldest at spanNext once full
	spanNext int

	scrapesOK   *obs.Counter
	scrapesFail *obs.Counter
	batches     *obs.Counter
	ingested    *obs.Counter
	evicted     *obs.Counter
	rejected    *obs.Counter
}

// New builds an aggregator over cfg.Targets plus, when set, the
// current contents of cfg.TargetsFile (which must load cleanly at
// construction — fail fast on a bad path or syntax).
func New(cfg Config) (*Aggregator, error) {
	targets := cfg.Targets
	if cfg.TargetsFile != "" {
		fromFile, err := LoadTargetsFile(cfg.TargetsFile)
		if err != nil {
			return nil, err
		}
		targets = mergeTargets(cfg.Targets, fromFile)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("obsd: at least one target required")
	}
	if cfg.TargetsReload <= 0 {
		cfg.TargetsReload = 10 * time.Second
	}
	if cfg.ScrapeInterval <= 0 {
		cfg.ScrapeInterval = 2 * time.Second
	}
	if cfg.SpanCap <= 0 {
		cfg.SpanCap = 16384
	}
	if cfg.SLOAvailability <= 0 || cfg.SLOAvailability >= 1 {
		cfg.SLOAvailability = 0.999
	}
	if cfg.SLOLatencySeconds <= 0 {
		cfg.SLOLatencySeconds = 0.25
	}
	if cfg.SLOLatencyObjective <= 0 || cfg.SLOLatencyObjective >= 1 {
		cfg.SLOLatencyObjective = 0.99
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, "napel-obsd")
	obs.RegisterRuntimeMetrics(reg)
	a := &Aggregator{
		cfg:     cfg,
		reg:     reg,
		static:  append([]Target(nil), cfg.Targets...),
		scrapes: make(map[string]*scrape, len(targets)),
		scrapesOK: reg.Counter("napel_obsd_scrapes_total",
			"Successful target scrapes."),
		scrapesFail: reg.Counter("napel_obsd_scrape_errors_total",
			"Target scrapes that failed or did not parse."),
		batches: reg.Counter("napel_obsd_span_batches_total",
			"Span batches accepted on /v1/spans."),
		ingested: reg.Counter("napel_obsd_spans_total",
			"Spans ingested across all batches."),
		evicted: reg.Counter("napel_obsd_spans_evicted_total",
			"Ingested spans evicted from the bounded store."),
		rejected: reg.Counter("napel_obsd_span_batches_rejected_total",
			"Span batches rejected as oversized or malformed."),
	}
	for _, t := range targets {
		a.scrapes[t.Job+"\x1f"+t.Instance] = &scrape{target: t}
	}
	reg.GaugeFunc("napel_obsd_targets",
		"Scrape targets currently configured (static + targets file).",
		func() float64 {
			a.scrapeMu.Lock()
			defer a.scrapeMu.Unlock()
			return float64(len(a.scrapes))
		})
	return a, nil
}

// mergeTargets concatenates target lists, dropping later duplicates of
// the same (job, instance) identity — the static list wins over the
// file.
func mergeTargets(lists ...[]Target) []Target {
	seen := map[string]bool{}
	var out []Target
	for _, list := range lists {
		for _, t := range list {
			key := t.Job + "\x1f" + t.Instance
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, t)
		}
	}
	return out
}

// TargetCount returns the number of currently configured targets.
func (a *Aggregator) TargetCount() int {
	a.scrapeMu.Lock()
	defer a.scrapeMu.Unlock()
	return len(a.scrapes)
}

// SetTargets replaces the scrape set: unknown targets get fresh slots,
// targets no longer named are dropped (their merged series vanish on
// the next /metrics), survivors keep their last scrape state. Returns
// how many were added and removed.
func (a *Aggregator) SetTargets(targets []Target) (added, removed int) {
	want := make(map[string]Target, len(targets))
	for _, t := range targets {
		want[t.Job+"\x1f"+t.Instance] = t
	}
	a.scrapeMu.Lock()
	for key := range a.scrapes {
		if _, ok := want[key]; !ok {
			delete(a.scrapes, key)
			removed++
		}
	}
	for key, t := range want {
		if s, ok := a.scrapes[key]; ok {
			s.target = t // same identity, possibly a new URL
		} else {
			a.scrapes[key] = &scrape{target: t}
			added++
		}
	}
	a.scrapeMu.Unlock()
	return added, removed
}

// reloadTargets re-reads the targets file and diffs the result (plus
// the static list) into the scrape set. Errors keep the current set:
// a half-written or briefly missing file must not blind the plane.
func (a *Aggregator) reloadTargets() {
	fromFile, err := LoadTargetsFile(a.cfg.TargetsFile)
	if err != nil {
		a.cfg.Logf("targets reload: %v (keeping current set)", err)
		return
	}
	added, removed := a.SetTargets(mergeTargets(a.static, fromFile))
	if added > 0 || removed > 0 {
		a.cfg.Logf("targets reloaded from %s: %d added, %d removed", a.cfg.TargetsFile, added, removed)
	}
}

// Run scrapes every target once immediately, then on every interval
// tick, until ctx is done. With a targets file configured it also
// re-reads the file every TargetsReload.
func (a *Aggregator) Run(ctx context.Context) {
	a.scrapeAll()
	ticker := time.NewTicker(a.cfg.ScrapeInterval)
	defer ticker.Stop()
	var reload <-chan time.Time
	if a.cfg.TargetsFile != "" {
		rt := time.NewTicker(a.cfg.TargetsReload)
		defer rt.Stop()
		reload = rt.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			a.scrapeAll()
		case <-reload:
			a.reloadTargets()
		}
	}
}

func (a *Aggregator) scrapeAll() {
	var wg sync.WaitGroup
	a.scrapeMu.Lock()
	states := make([]*scrape, 0, len(a.scrapes))
	for _, s := range a.scrapes {
		states = append(states, s)
	}
	a.scrapeMu.Unlock()
	for _, s := range states {
		wg.Add(1)
		go func(s *scrape) {
			defer wg.Done()
			a.scrapeOne(s.target)
		}(s)
	}
	wg.Wait()
}

func (a *Aggregator) scrapeOne(t Target) {
	start := time.Now()
	exp, err := a.fetch(t.URL + "/metrics")
	a.scrapeMu.Lock()
	s := a.scrapes[t.Job+"\x1f"+t.Instance]
	s.at = start
	s.dur = time.Since(start)
	if err != nil {
		s.up = false
		s.err = err.Error()
	} else {
		s.up = true
		s.err = ""
		s.exp = exp
	}
	a.scrapeMu.Unlock()
	if err != nil {
		a.scrapesFail.Inc()
		a.cfg.Logf("scrape %s (%s): %v", t.Instance, t.Job, err)
	} else {
		a.scrapesOK.Inc()
	}
}

func (a *Aggregator) fetch(url string) (*obs.Exposition, error) {
	resp, err := a.cfg.Client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return obs.ParseExposition(resp.Body)
}

// snapshotScrapes returns the scrape states in deterministic
// (job, instance) order.
func (a *Aggregator) snapshotScrapes() []*scrape {
	a.scrapeMu.Lock()
	defer a.scrapeMu.Unlock()
	out := make([]*scrape, 0, len(a.scrapes))
	for _, s := range a.scrapes {
		c := *s
		out = append(out, &c)
	}
	sortScrapes(out)
	return out
}

// ingest appends one process's spans into the bounded store.
func (a *Aggregator) ingest(batch obs.SpanBatch) {
	a.spanMu.Lock()
	for _, rec := range batch.Spans {
		ps := procSpan{Process: batch.Process, SpanRecord: rec}
		if len(a.spans) < a.cfg.SpanCap {
			a.spans = append(a.spans, ps)
		} else {
			a.spans[a.spanNext] = ps
			a.evicted.Inc()
		}
		a.spanNext = (a.spanNext + 1) % a.cfg.SpanCap
	}
	a.spanMu.Unlock()
	a.batches.Inc()
	a.ingested.Add(uint64(len(batch.Spans)))
}

// snapshotSpans returns the retained spans, oldest first.
func (a *Aggregator) snapshotSpans() []procSpan {
	a.spanMu.Lock()
	defer a.spanMu.Unlock()
	out := make([]procSpan, 0, len(a.spans))
	if len(a.spans) == a.cfg.SpanCap {
		out = append(out, a.spans[a.spanNext:]...)
		out = append(out, a.spans[:a.spanNext]...)
	} else {
		out = append(out, a.spans...)
	}
	return out
}

// Handler mounts the aggregator's HTTP surface:
//
//	GET  /healthz      liveness + target summary
//	GET  /metrics      own series + fleet-merged series (job/instance)
//	POST /v1/spans     span batch ingestion (obs.SpanBatch)
//	GET  /debug/fleet  cross-process trace trees + SLO burn rates
//	GET  /debug/...    pprof + runtime snapshot
func (a *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		states := a.snapshotScrapes()
		up := 0
		for _, s := range states {
			if s.up {
				up++
			}
		}
		httpd.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "targets": len(states), "up": up})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		a.reg.WriteText(w)
		a.writeMerged(w)
	})

	mux.HandleFunc("POST /v1/spans", func(w http.ResponseWriter, r *http.Request) {
		var batch obs.SpanBatch
		dec := json.NewDecoder(io.LimitReader(r.Body, maxBatchBytes))
		if err := dec.Decode(&batch); err != nil {
			a.rejected.Inc()
			http.Error(w, "bad span batch: "+err.Error(), http.StatusBadRequest)
			return
		}
		if batch.Process == "" {
			batch.Process = "unknown"
		}
		a.ingest(batch)
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /debug/fleet", a.fleetHandler)

	obs.MountDebug(mux, nil)
	return mux
}
