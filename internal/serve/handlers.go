package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"napel/internal/httpd"
	"napel/internal/napel"
	"napel/internal/obs"
	"napel/internal/resilience"
	"napel/internal/resilience/faultpoint"
)

// apiError is a handler failure with its HTTP status.
type apiError struct {
	status int
	msg    string
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	httpd.WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"models":         len(s.registry.List()),
		"uptime_seconds": time.Since(s.o.start).Seconds(),
	})
}

// handleReadyz is the readiness probe, distinct from the /healthz
// liveness probe: the process can be alive but unable to serve — no
// model generation installed yet (lazy start before the first
// promotion) or draining on the way down. Orchestrators route traffic
// on this answer; /healthz only says the process is running.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	ready := !draining && s.registry.Ready()
	// The body names the serving lineage so rolling promotion (and
	// operators) can gate on "replica X serves version Y", not just
	// 200-vs-503, and flags degradation: a tripped reload breaker means
	// the replica still answers but cannot hot-install promotions.
	models := s.registry.List()
	body := map[string]any{
		"ready":    ready,
		"draining": draining,
		"models":   len(models),
		"degraded": s.reloadBreaker.State() != resilience.BreakerClosed,
	}
	if m, ok := s.registry.Get(""); ok {
		body["model_version"] = m.Version
	}
	if len(models) > 0 {
		versions := make(map[string]string, len(models))
		for _, m := range models {
			versions[m.Name] = m.Version
		}
		body["model_versions"] = versions
	}
	if ready {
		httpd.WriteJSON(w, http.StatusOK, body)
		return
	}
	if draining {
		setRetryAfter(w, s.retryAfterSeconds())
	}
	httpd.WriteJSON(w, http.StatusServiceUnavailable, body)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	httpd.WriteJSON(w, http.StatusOK, map[string]any{"models": s.registry.List()})
}

// handleReload re-reads every model file and atomically installs the
// new generation, guarded by the reload circuit breaker: after enough
// consecutive failures the endpoint answers 503 with a Retry-After
// matching the breaker's cool-down instead of re-parsing a broken file
// on every request. The response cache needs no flush: keys embed the
// model content hash, so entries for replaced weights simply stop being
// referenced and age out of the LRU.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if err := s.reloadBreaker.Allow(); err != nil {
		setRetryAfter(w, clampSeconds(s.reloadBreaker.RetryIn(), 1, 3600))
		httpd.WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	err := faultpoint.Inject(r.Context(), fpReload)
	var models []*Model
	if err == nil {
		models, err = s.registry.Reload()
	}
	if err != nil {
		s.reloadBreaker.RecordFailure()
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, napel.ErrBadModelVersion), errors.Is(err, napel.ErrFeatureLayout):
			status = http.StatusUnprocessableEntity
		case errors.Is(err, fs.ErrNotExist):
			status = http.StatusNotFound
		case errors.Is(err, faultpoint.ErrInjected):
			status = http.StatusServiceUnavailable
		}
		httpd.WriteError(w, status, err.Error())
		return
	}
	s.reloadBreaker.RecordSuccess()
	httpd.WriteJSON(w, http.StatusOK, map[string]any{"reloaded": true, "models": models})
}

// readBody reads the request body, timed as the read stage; ok is false
// when httpd.Request has answered a failed read.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	t0 := time.Now()
	body, ok = httpd.Request(w, r, s.cfg.MaxBodyBytes)
	s.o.stageRead.ObserveSince(t0)
	return body, ok
}

// writeAnswer writes a 200 answer, timed as the encode stage.
func (s *Server) writeAnswer(w http.ResponseWriter, v any) {
	t0 := time.Now()
	httpd.WriteJSON(w, http.StatusOK, v)
	s.o.stageEncode.ObserveSince(t0)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	t0 := time.Now()
	if firstByte(body) == '[' {
		reqs, err := decodeBatch(body, s.cfg.MaxBatch)
		s.o.stageDecode.ObserveSince(t0)
		switch {
		case errors.Is(err, errBatchTooLarge):
			httpd.WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("batch exceeds limit %d", s.cfg.MaxBatch))
		case err != nil:
			httpd.WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding batch: %v", err))
		case len(reqs) == 0:
			httpd.WriteError(w, http.StatusBadRequest, "empty batch")
		default:
			s.predictBatch(w, r.Context(), reqs)
		}
		return
	}
	var req input
	err := decodeRequest(body, &req, nil)
	s.o.stageDecode.ObserveSince(t0)
	if err != nil {
		httpd.WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	resp, apiErr := s.predictOne(r.Context(), &req)
	if apiErr != nil {
		httpd.WriteError(w, apiErr.status, apiErr.msg)
		return
	}
	s.writeAnswer(w, resp)
}

// predictBatch fans a decoded request array out across the worker pool.
// The response is an index-aligned array; item failures are reported
// inline so one bad entry cannot fail the batch. Every item's spans hang
// off the request's root span, so one /debug/traces entry shows the
// whole fan-out.
func (s *Server) predictBatch(w http.ResponseWriter, ctx context.Context, reqs []input) {
	resps := make([]PredictResponse, len(reqs))
	workers := s.cfg.Workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	bctx, bspan := obs.StartSpan(ctx, "batch")
	bspan.SetAttrInt("items", int64(len(reqs)))
	bspan.SetAttrInt("workers", int64(workers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				resp, apiErr := s.predictOne(bctx, &reqs[i])
				if apiErr != nil {
					resp = PredictResponse{Error: apiErr.msg}
				}
				resps[i] = resp
			}
		}()
	}
	wg.Wait()
	bspan.End()
	s.writeAnswer(w, resps)
}

func (s *Server) handleSuitability(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	t0 := time.Now()
	var req input
	var host WireHost
	err := decodeRequest(body, &req, &host)
	s.o.stageDecode.ObserveSince(t0)
	if err != nil {
		httpd.WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	hostEDP, err := host.edp()
	if err != nil {
		httpd.WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	nmc, apiErr := s.predictOne(r.Context(), &req)
	if apiErr != nil {
		httpd.WriteError(w, apiErr.status, apiErr.msg)
		return
	}
	// Mirror the Section 3.4 verdict: offload when the predicted NMC
	// execution reduces energy-delay product vs. the host.
	reduction := 0.0
	if nmc.EDP > 0 {
		reduction = hostEDP / nmc.EDP
	}
	verdict := "host"
	if reduction > 1 {
		verdict = "offload"
	}
	s.writeAnswer(w, SuitabilityResponse{
		NMC:          nmc,
		HostEDP:      hostEDP,
		EDPReduction: reduction,
		Verdict:      verdict,
	})
}

// predictOne serves one prediction, consulting the LRU response cache
// first. Predictors are shared across goroutines without locking — see
// the concurrency guarantee on napel.Predictor. Each stage (feature
// assembly, cache lookup, model predict) gets a child span and a sample
// in the per-stage histogram, so /debug/traces and /metrics agree on
// where a slow prediction spent its time.
func (s *Server) predictOne(ctx context.Context, req *input) (PredictResponse, *apiError) {
	if s.testHookPredict != nil {
		s.testHookPredict()
	}
	if resilience.Expired(ctx) {
		s.o.deadlineExhausted.Inc()
		return PredictResponse{}, &apiError{http.StatusGatewayTimeout, "request budget exhausted"}
	}
	// No such model — including "no generation installed yet" on a lazy
	// start. No last-good answer can stand in: those are kept per
	// resolved model, and a generation, once installed, holds every
	// configured model.
	model, ok := s.registry.Get(req.model)
	if !ok {
		return PredictResponse{}, &apiError{http.StatusNotFound, fmt.Sprintf("unknown model %q", req.model)}
	}

	t0 := time.Now()
	_, aspan := obs.StartSpan(ctx, "assemble")
	feat, totalInstrs, cfg, threads, err := req.assemble()
	aspan.SetError(err)
	aspan.End()
	s.o.stageAssemble.ObserveSince(t0)
	if err != nil {
		return PredictResponse{}, &apiError{http.StatusUnprocessableEntity, err.Error()}
	}
	s.o.predictions.Inc()

	// The feature vector already embeds the architecture point and
	// thread count (ArchVector), so vector+totals identify the result.
	featHash := hashPrediction(feat, totalInstrs)
	key := cacheKey{version: model.Version, hash: featHash}
	t0 = time.Now()
	_, cspan := obs.StartSpan(ctx, "cache")
	pred, hit := s.cache.Get(key)
	cspan.SetAttr("hit", strconv.FormatBool(hit))
	cspan.End()
	s.o.stageCache.ObserveSince(t0)
	if hit {
		return makeResponse(model, pred, true), nil
	}

	// The predict fault point stands in for any model-evaluation
	// failure; a last-good answer (from any generation of this model)
	// downgrades the failure to a Degraded response.
	if err := faultpoint.Inject(ctx, fpPredict); err != nil {
		if resp, served := s.degradedAnswer(model.Name, featHash); served {
			return resp, nil
		}
		return PredictResponse{}, &apiError{http.StatusServiceUnavailable, "prediction unavailable: " + err.Error()}
	}

	t0 = time.Now()
	_, pspan := obs.StartSpan(ctx, "predict")
	pspan.SetAttr("model", model.Name)
	pred = model.Predictor.PredictAssembled(feat, totalInstrs, cfg, threads)
	pspan.End()
	s.o.stagePredict.ObserveSince(t0)
	s.cache.Put(key, pred)
	if s.degraded != nil {
		s.degraded.Put(degradedKey{model: model.Name, hash: featHash}, pred)
	}
	return makeResponse(model, pred, false), nil
}

// degradedAnswer serves the named model's last-good prediction for the
// same inputs when the normal path cannot answer. The entry may have
// been computed under any generation of that model — that staleness is
// exactly what the Degraded flag discloses to the client.
func (s *Server) degradedAnswer(model string, featHash uint64) (PredictResponse, bool) {
	if s.degraded == nil {
		return PredictResponse{}, false
	}
	pred, ok := s.degraded.Get(degradedKey{model: model, hash: featHash})
	if !ok {
		return PredictResponse{}, false
	}
	s.o.degradedServed.Inc()
	resp := makeResponse(&Model{Name: model}, pred, true)
	resp.Degraded = true
	return resp, true
}

func makeResponse(m *Model, p napel.Prediction, cached bool) PredictResponse {
	return PredictResponse{
		Model:        m.Name,
		ModelVersion: m.Version,
		IPC:          p.IPC,
		EPI:          p.EPI,
		TotalInstrs:  p.TotalInstrs,
		TimeSec:      p.TimeSec,
		EnergyJ:      p.EnergyJ,
		EDP:          p.EDP,
		Cached:       cached,
	}
}

// hashPrediction digests the assembled feature vector and instruction
// total into the cache key's hash half.
func hashPrediction(feat []float64, totalInstrs float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range feat {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(totalInstrs))
	h.Write(buf[:])
	return h.Sum64()
}

// RouteHash returns the feature-vector hash a replica's response cache
// keys this request on: two requests share it iff they would share a
// cache entry. With fleet.Key it models routing by feature identity;
// napel-gate routes on request bytes and does not call it.
func (req *PredictRequest) RouteHash() (uint64, error) {
	feat, totalInstrs, _, _, err := req.assemble()
	if err != nil {
		return 0, err
	}
	return hashPrediction(feat, totalInstrs), nil
}

// firstByte returns the first non-whitespace byte of b, or 0.
func firstByte(b []byte) byte {
	trimmed := bytes.TrimLeft(b, " \t\r\n")
	if len(trimmed) == 0 {
		return 0
	}
	return trimmed[0]
}
