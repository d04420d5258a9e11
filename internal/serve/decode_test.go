package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"napel/internal/napel"
	"napel/internal/nmcsim"
	"napel/internal/pisa"
)

// vector is the map-form profile check the server runs: the named
// features in pisa's order, then profileVec.check.
func (wp *WireProfile) vector() ([]float64, error) {
	p := wp.vec()
	return p.check()
}

// refVector and refAssemble are the request path before the one-pass
// decoder, kept as FuzzDecodeRequest's reference: after encoding/json
// has built the wire types, the named features are ordered into pisa's
// layout and the request is assembled.
func refVector(wp *WireProfile) ([]float64, error) {
	names := pisa.FeatureNames()
	if len(wp.Features) != len(names) {
		return nil, fmt.Errorf("profile has %d features, want %d", len(wp.Features), len(names))
	}
	vec := make([]float64, len(names))
	for i, n := range names {
		v, ok := wp.Features[n]
		if !ok {
			return nil, fmt.Errorf("profile is missing feature %q", n)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("feature %q is not finite", n)
		}
		vec[i] = v
	}
	if wp.TotalInstrs <= 0 || math.IsNaN(wp.TotalInstrs) || math.IsInf(wp.TotalInstrs, 0) {
		return nil, fmt.Errorf("total_instrs %g must be positive and finite", wp.TotalInstrs)
	}
	return vec, nil
}

func refAssemble(req *PredictRequest) (feat []float64, totalInstrs float64, cfg nmcsim.Config, threads int, err error) {
	profVec, err := refVector(&req.Profile)
	if err != nil {
		return nil, 0, cfg, 0, err
	}
	cfg, err = req.Arch.config()
	if err != nil {
		return nil, 0, cfg, 0, err
	}
	threads = req.Threads
	if threads == 0 {
		threads = cfg.PEs
	}
	if threads < 0 {
		return nil, 0, cfg, 0, fmt.Errorf("threads %d must be positive", threads)
	}
	arch, err := napel.ArchVectorFromCurve(cfg, req.Profile.HitCurve, threads)
	if err != nil {
		return nil, 0, cfg, 0, err
	}
	feat = append(profVec, arch...)
	return feat, req.Profile.TotalInstrs, cfg, threads, nil
}

// TestDecoderFieldsMatchTags: the decoder's field tables list the json
// names of the wire types' fields in declaration order, the order its
// switches read them in. A renamed tag fails here even where the fuzz
// seeds would read the old key as an unknown one.
func TestDecoderFieldsMatchTags(t *testing.T) {
	var names func(reflect.Type) []string
	names = func(typ reflect.Type) []string {
		var out []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if f.Anonymous && name == "" {
				out = append(out, names(f.Type)...)
				continue
			}
			out = append(out, name)
		}
		return out
	}
	for _, c := range []struct {
		typ   any
		table []string
	}{
		{SuitabilityRequest{}, requestFields},
		{WireProfile{}, profileFields},
		{WireArch{}, archFields},
		{WireHost{}, hostFields},
	} {
		if got := names(reflect.TypeOf(c.typ)); !reflect.DeepEqual(got, c.table) {
			t.Errorf("%T has json fields %q, the decoder reads %q", c.typ, got, c.table)
		}
	}
}

// fuzzMaxBatch is small so that the fuzzer reaches the batch limit.
const fuzzMaxBatch = 4

// FuzzDecodeRequest checks the request decoder against encoding/json
// plus refAssemble on single, batch and suitability bodies: it must not
// panic, must accept exactly the bodies encoding/json accepts, must
// reject in the same class (a decode error is a 400, an assembly error
// a 422 with the reference's message, which differs only in the feature
// count when a body repeats an unknown feature name), and must read
// accepted bodies to the same values, assembling bit-identical vectors,
// totals, configs and thread counts. Past the batch limit the decoder
// answers 413 where encoding/json, which reads the whole batch first,
// may find a 400.
// Seeds are in testdata/fuzz/FuzzDecodeRequest.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if firstByte(body) == '[' {
			fuzzBatch(t, body)
		} else {
			var want PredictRequest
			werr := json.Unmarshal(body, &want)
			var got input
			gerr := decodeRequest(body, &got, nil)
			if sameAcceptance(t, "single", gerr, werr) {
				sameRequest(t, &got, &want)
			}
		}
		var want SuitabilityRequest
		werr := json.Unmarshal(body, &want)
		var got input
		var host WireHost
		gerr := decodeRequest(body, &got, &host)
		if sameAcceptance(t, "suitability", gerr, werr) {
			if host != want.Host {
				t.Fatalf("host %+v, encoding/json %+v", host, want.Host)
			}
			sameRequest(t, &got, &want.PredictRequest)
		}
	})
}

// sameAcceptance requires the decoder to accept exactly when
// encoding/json does, and to reject with a decodeError whose message
// holds no byte offset. It reports whether both accepted.
func sameAcceptance(t *testing.T, what string, gerr, werr error) bool {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: decoder error %v, encoding/json error %v", what, gerr, werr)
	}
	if gerr != nil {
		var de *decodeError
		if !errors.As(gerr, &de) || strings.Contains(gerr.Error(), "offset") {
			t.Fatalf("%s: rejection %q (%T) is not a decodeError without an offset", what, gerr, gerr)
		}
	}
	return gerr == nil
}

func fuzzBatch(t *testing.T, body []byte) {
	var want []PredictRequest
	werr := json.Unmarshal(body, &want)
	wstatus := http.StatusOK
	switch {
	case werr != nil, len(want) == 0:
		wstatus = http.StatusBadRequest
	case len(want) > fuzzMaxBatch:
		wstatus = http.StatusRequestEntityTooLarge
	}
	got, gerr := decodeBatch(body, fuzzMaxBatch)
	gstatus := http.StatusOK
	switch {
	case errors.Is(gerr, errBatchTooLarge):
		gstatus = http.StatusRequestEntityTooLarge
	case gerr != nil:
		sameAcceptance(t, "batch", gerr, werr)
		gstatus = http.StatusBadRequest
	case len(got) == 0:
		gstatus = http.StatusBadRequest
	}
	if gstatus != wstatus && !(gstatus == http.StatusRequestEntityTooLarge && wstatus == http.StatusBadRequest) {
		t.Fatalf("batch: decoder answers %d (%v), encoding/json %d (%v)", gstatus, gerr, wstatus, werr)
	}
	if gstatus == http.StatusOK {
		if len(got) != len(want) {
			t.Fatalf("batch: %d items, encoding/json %d", len(got), len(want))
		}
		for i := range got {
			sameRequest(t, &got[i], &want[i])
		}
	}
}

// sameRequest compares a decoded request with encoding/json's, field by
// field and then assembled.
func sameRequest(t *testing.T, got *input, want *PredictRequest) {
	t.Helper()
	if got.model != want.Model || got.arch != want.Arch || got.threads != want.Threads {
		t.Fatalf("model %q arch %+v threads %d, encoding/json %q %+v %d",
			got.model, got.arch, got.threads, want.Model, want.Arch, want.Threads)
	}
	p, wp := &got.prof, &want.Profile
	known := 0
	for i, n := range pisa.FeatureNames() {
		v, ok := wp.Features[n]
		has := p.present[i/64]&(1<<(i%64)) != 0
		if has != ok || ok && math.Float64bits(p.feat[i]) != math.Float64bits(v) {
			t.Fatalf("feature %q: present %v", n, has)
		}
		if ok {
			known++
		}
	}
	// The decoder counts an unknown feature name each time it appears,
	// the map once, so the counts differ only when a body repeats one.
	wantUnknown := len(wp.Features) - known
	repeated := wantUnknown > 0 && p.unknown > wantUnknown
	if p.unknown != wantUnknown && !repeated {
		t.Fatalf("%d unknown feature names, encoding/json %d", p.unknown, wantUnknown)
	}
	if !sameBits([]float64{p.total}, []float64{wp.TotalInstrs}) || !sameBits(p.hitCurve, wp.HitCurve) {
		t.Fatalf("total %v hit curve %v, encoding/json %v %v", p.total, p.hitCurve, wp.TotalInstrs, wp.HitCurve)
	}

	feat, total, cfg, threads, err := got.assemble()
	wfeat, wtotal, wcfg, wthreads, werr := refAssemble(want)
	if (err == nil) != (werr == nil) || err != nil && !repeated && err.Error() != werr.Error() {
		t.Fatalf("assembly error %v, reference %v", err, werr)
	}
	if err == nil && (!sameBits(feat, wfeat) || !sameBits([]float64{total}, []float64{wtotal}) || cfg != wcfg || threads != wthreads) {
		t.Fatalf("assembled request differs from the reference's")
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestServerBatchOverLimitStopsEarly: a batch of more than MaxBatch
// items is refused with 413 before its items are read. Decoded whole by
// encoding/json before the count was checked, this 1 MB body of 333 333
// empty items allocated 309 MB.
func TestServerBatchOverLimitStopsEarly(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	body := []byte("[" + strings.Repeat("{},", 333_332) + "{}]")
	h := s.Handler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := serveBody(h, body)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Fatalf("refusing a %d-byte batch allocated %d bytes", len(body), alloc)
	}
}

// TestServeStagesObserved: one single, one batch and one suitability
// request on a fresh server leave a sample in every stage of
// napel_serve_predict_stage_seconds.
func TestServeStagesObserved(t *testing.T) {
	f := fixture(t)
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := makeRequest(f, WireArch{}, f.threads)
	for path, body := range map[string]any{
		"/v1/predict":     req,
		"/v1/suitability": SuitabilityRequest{PredictRequest: req, Host: WireHost{EDP: 1}},
	} {
		if resp, out := postJSON(t, ts.URL+path, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, out)
		}
	}
	if resp, out := postJSON(t, ts.URL+"/v1/predict", []PredictRequest{req, makeRequest(f, WireArch{PEs: 8}, 1)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, out)
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, stage := range []string{"read", "decode", "assemble", "cache", "predict", "encode"} {
		if n := metricValue(t, metrics, `napel_serve_predict_stage_seconds_count{stage="`+stage+`"}`); n < 1 {
			t.Errorf("stage %s has %g samples", stage, n)
		}
	}
}

// cachedHarness builds the layer benchmarks' server: Server.Handler()
// driven in-process by httptest, with the fixture's atax request as an
// 11.7 KB single body and a 187 KB batch of 16 variants, both answered
// once already so that every later answer is a cache hit. The server
// sizes its batch fan-out from GOMAXPROCS when it is built.
func cachedHarness(tb testing.TB) (h http.Handler, single, batch []byte) {
	tb.Helper()
	f := fixture(tb)
	s, _ := newTestServer(tb, Config{})
	reqs := make([]PredictRequest, 16)
	for i := range reqs {
		reqs[i] = makeRequest(f, WireArch{PEs: 4 + i}, f.threads)
	}
	var err error
	if single, err = json.Marshal(reqs[0]); err != nil {
		tb.Fatal(err)
	}
	if batch, err = json.Marshal(reqs); err != nil {
		tb.Fatal(err)
	}
	h = s.Handler()
	for _, body := range [][]byte{single, batch} {
		if rec := serveBody(h, body); rec.Code != http.StatusOK {
			tb.Fatalf("warming: status %d: %s", rec.Code, rec.Body)
		}
	}
	return h, single, batch
}

func serveBody(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
	return rec
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestServeCachedAllocs pins the allocations of a cached answer at
// GOMAXPROCS 1 on cachedHarness: at most 50 for the single body and 300
// for the batch of 16. Decoding with encoding/json took 880 and 13 315.
func TestServeCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h, single, batch := cachedHarness(t)
	for _, c := range []struct {
		name string
		body []byte
		max  float64
	}{{"single", single, 50}, {"batch of 16", batch, 300}} {
		n := testing.AllocsPerRun(50, func() {
			if rec := serveBody(h, c.body); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`)) {
				t.Fatalf("%s: status %d, not a cache hit: %s", c.name, rec.Code, rec.Body)
			}
		})
		if n > c.max {
			t.Errorf("a cached %s allocates %.0f times, want at most %.0f", c.name, n, c.max)
		}
	}
}

// The layer benchmarks run on cachedHarness; run them with -cpu 1 to
// match TestServeCachedAllocs.

func BenchmarkServeDecode(b *testing.B) {
	_, single, _ := cachedHarness(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(single)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var in input
		if err := decodeRequest(single, &in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeCachedSingle(b *testing.B) { benchCached(b, false) }

func BenchmarkServeCachedBatch16(b *testing.B) { benchCached(b, true) }

func benchCached(b *testing.B, batched bool) {
	h, body, batch := cachedHarness(b)
	if batched {
		body = batch
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serveBody(h, body); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
