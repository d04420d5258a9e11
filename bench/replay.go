package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"napel/internal/cache"
	"napel/internal/fleet"
	"napel/internal/loadgen"
	"napel/internal/napel"
	"napel/internal/serve"
)

// replayOps is how many scheduled operations the in-process replay
// runs per workload.
const replayOps = 2000

// replayKey is the response-cache identity napel-serve uses: the model
// version and the feature-vector hash RouteHash exposes.
type replayKey struct {
	version string
	hash    uint64
}

// replayer re-runs a workload's schedule single-threaded through the
// public calls each layer makes at this commit: serve's decode, assemble
// and encode, the response cache, the forest walk, and the gate's split,
// route and merge. It times those calls from the outside; a change that
// makes a layer call something else must update this file with it.
type replayer struct {
	gen     *loadgen.Generator
	pred    *napel.Predictor
	version string
	lru     *cache.LRU[replayKey, napel.Prediction]
	keys    []uint64 // RouteHash per request variant
	ring    *fleet.Ring
	rec     *recorder
	serveNs int64 // untraced time spent in the serve half
}

func newReplayer(w *workload, pred *napel.Predictor, version string) (*replayer, error) {
	r := &replayer{
		gen:     w.gen,
		pred:    pred,
		version: version,
		ring:    fleet.NewRing([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, 0),
	}
	for v := 0; v < w.keyspace; v++ {
		h, err := r.gen.Request(v).RouteHash()
		if err != nil {
			return nil, fmt.Errorf("variant %d: %w", v, err)
		}
		r.keys = append(r.keys, h)
	}
	return r, nil
}

// pass replays ops [0, n) with a fresh cache of the given capacity,
// through the gate half too when gate is set.
func (r *replayer) pass(n, cacheEntries int, rec *recorder, gate bool) error {
	r.lru = cache.NewLRU[replayKey, napel.Prediction](cacheEntries)
	r.rec = rec
	r.serveNs = 0
	for i := 0; i < n; i++ {
		if err := r.op(int32(i), gate); err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
	}
	return nil
}

func (r *replayer) op(i int32, gate bool) error {
	op := r.gen.Op(uint64(i))
	body := r.gen.Body(op)
	root := r.rec.begin("op."+op.Kind.String(), i, -1)
	defer r.rec.end(root)

	start := time.Now()
	resps, err := r.serveHalf(op, body, i, root)
	r.serveNs += int64(time.Since(start))
	if err != nil || !gate {
		return err
	}
	return r.gateHalf(op, body, resps, i, root)
}

// serveHalf is what napel-serve does with one request body.
func (r *replayer) serveHalf(op loadgen.Op, body []byte, i, root int32) ([]serve.PredictResponse, error) {
	var err error
	var out any
	var resps []serve.PredictResponse
	switch op.Kind {
	case loadgen.KindBatch:
		var reqs []serve.PredictRequest
		s := r.rec.begin("serve.decode", i, root)
		err = json.Unmarshal(body, &reqs)
		r.rec.end(s)
		if err != nil {
			return nil, err
		}
		variants := r.gen.BatchVariants(op.Variant)
		resps = make([]serve.PredictResponse, len(reqs))
		for j := range reqs {
			if resps[j], err = r.item(&reqs[j], variants[j], i, root); err != nil {
				return nil, err
			}
		}
		out = resps
	case loadgen.KindSuitability:
		var req serve.SuitabilityRequest
		s := r.rec.begin("serve.decode", i, root)
		err = json.Unmarshal(body, &req)
		r.rec.end(s)
		if err != nil {
			return nil, err
		}
		nmc, err := r.item(&req.PredictRequest, op.Variant, i, root)
		if err != nil {
			return nil, err
		}
		verdict := "host"
		if req.Host.EDP > nmc.EDP {
			verdict = "offload"
		}
		out = serve.SuitabilityResponse{NMC: nmc, HostEDP: req.Host.EDP, EDPReduction: req.Host.EDP / nmc.EDP, Verdict: verdict}
	default:
		var req serve.PredictRequest
		s := r.rec.begin("serve.decode", i, root)
		err = json.Unmarshal(body, &req)
		r.rec.end(s)
		if err != nil {
			return nil, err
		}
		resp, err := r.item(&req, op.Variant, i, root)
		if err != nil {
			return nil, err
		}
		out = resp
	}
	s := r.rec.begin("serve.encode", i, root)
	_, err = json.Marshal(out)
	r.rec.end(s)
	return resps, err
}

// item is one prediction: assemble, cache lookup, and on a miss the
// forest walk and the cache fill.
func (r *replayer) item(req *serve.PredictRequest, variant int, i, root int32) (serve.PredictResponse, error) {
	s := r.rec.begin("serve.assemble", i, root)
	feat, total, cfg, threads, err := req.Assemble()
	r.rec.end(s)
	if err != nil {
		return serve.PredictResponse{}, err
	}
	key := replayKey{r.version, r.keys[variant]}
	s = r.rec.begin("cache.get", i, root)
	pred, hit := r.lru.Get(key)
	r.rec.end(s)
	if !hit {
		s = r.rec.begin("napel.predict", i, root)
		pred = r.pred.PredictAssembled(feat, total, cfg, threads)
		r.rec.end(s)
		s = r.rec.begin("cache.put", i, root)
		r.lru.Put(key, pred)
		r.rec.end(s)
	}
	return serve.PredictResponse{
		Model: serve.DefaultModelName, ModelVersion: r.version,
		IPC: pred.IPC, EPI: pred.EPI, TotalInstrs: pred.TotalInstrs,
		TimeSec: pred.TimeSec, EnergyJ: pred.EnergyJ, EDP: pred.EDP, Cached: hit,
	}, nil
}

// gateHalf is what napel-gate does with the same body: decode it to
// route (twice for a batch: raw items and typed items), hash each item
// onto the ring, and for a batch merge the per-shard answers.
func (r *replayer) gateHalf(op loadgen.Op, body []byte, resps []serve.PredictResponse, i, root int32) error {
	var items []*serve.PredictRequest
	var raws []json.RawMessage
	s := r.rec.begin("fleet.split", i, root)
	var err error
	switch op.Kind {
	case loadgen.KindBatch:
		var reqs []serve.PredictRequest
		if err = json.Unmarshal(body, &raws); err == nil {
			err = json.Unmarshal(body, &reqs)
		}
		for j := range reqs {
			items = append(items, &reqs[j])
		}
	case loadgen.KindSuitability:
		var req serve.SuitabilityRequest
		err = json.Unmarshal(body, &req)
		items = append(items, &req.PredictRequest)
	default:
		var req serve.PredictRequest
		err = json.Unmarshal(body, &req)
		items = append(items, &req)
	}
	r.rec.end(s)
	if err != nil {
		return err
	}
	groups := map[int][]int{}
	for j, req := range items {
		s := r.rec.begin("fleet.route", i, root)
		h, err := req.RouteHash()
		shard := r.ring.Shard(fleet.Key(r.version, h))
		r.rec.end(s)
		if err != nil {
			return err
		}
		groups[shard] = append(groups[shard], j)
	}
	if op.Kind != loadgen.KindBatch {
		return nil
	}
	// Each shard's answer, as the replica would have encoded it.
	shardBodies := make(map[int][]byte, len(groups))
	for shard, idxs := range groups {
		sub := make([]serve.PredictResponse, len(idxs))
		for k, j := range idxs {
			sub[k] = resps[j]
		}
		if shardBodies[shard], err = json.Marshal(sub); err != nil {
			return err
		}
	}
	s = r.rec.begin("fleet.merge", i, root)
	merged := make([]serve.PredictResponse, len(items))
	for shard, idxs := range groups {
		var sub []serve.PredictResponse
		if err = json.Unmarshal(shardBodies[shard], &sub); err != nil {
			break
		}
		for k, j := range idxs {
			merged[j] = sub[k]
		}
	}
	if err == nil {
		_, err = json.Marshal(merged)
	}
	r.rec.end(s)
	return err
}

// replayMetrics runs the untraced, traced and allocation passes over
// the first replayOps ops of w and derives the [R] metrics. With trace
// non-nil the traced pass's spans are appended to it.
func replayMetrics(w *workload, wi int, prep *prepared, trace io.Writer) (map[string]float64, error) {
	m := map[string]float64{}
	var loads []float64
	var reg *serve.Registry
	for k := 0; k < 3; k++ {
		start := time.Now()
		var err error
		if reg, err = serve.NewRegistry(map[string]string{serve.DefaultModelName: prep.pathA}); err != nil {
			return nil, err
		}
		loads = append(loads, ms(time.Since(start)))
	}
	m["serve.registry_load_ms"] = median(loads)
	model, _ := reg.Get("")
	r, err := newReplayer(w, model.Predictor, model.Version)
	if err != nil {
		return nil, err
	}
	entries := w.cacheEntries
	if entries == 0 {
		entries = 4096 // napel-serve's default
	}

	// A short unrecorded pass first, so the untraced pass does not pay
	// for heap growth the traced pass would then inherit for free. The
	// untraced pass times the serve half only; the traced pass's serve
	// half is timed the same way, which gives the tracing overhead.
	if err := r.pass(replayOps/10, entries, nil, false); err != nil {
		return nil, err
	}
	if err := r.pass(replayOps, entries, nil, false); err != nil {
		return nil, err
	}
	untraced := r.serveNs
	m["serve.replay_us_per_request"] = float64(untraced) / 1e3 / replayOps

	capacity := replayOps * (8 + 6*w.gen.BatchItems())
	rec := newRecorder(recTime, capacity)
	if err := r.pass(replayOps, entries, rec, true); err != nil {
		return nil, err
	}
	m["obs.trace_overhead_share"] = float64(r.serveNs-untraced) / float64(untraced)
	times := aggregate(rec.spans)
	if trace != nil {
		if err := writeSpans(trace, w.name, wi, rec.base, rec.spans); err != nil {
			return nil, err
		}
	}

	arec := newRecorder(recAllocs, capacity)
	if err := r.pass(replayOps, entries, arec, true); err != nil {
		return nil, err
	}
	allocs := aggregate(arec.spans)

	for _, l := range []string{"serve.decode", "serve.assemble", "serve.encode", "napel.predict",
		"fleet.split", "fleet.route", "fleet.merge"} {
		m[l+"_us"] = times[l].mean() / 1e3
		m[l+"_allocs"] = allocs[l].mean()
	}
	m["cache.get_us"] = times["cache.get"].mean() / 1e3
	m["cache.put_us"] = times["cache.put"].mean() / 1e3
	return m, nil
}
