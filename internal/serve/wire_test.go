package serve

import (
	"context"
	"encoding/json"
	"testing"

	"napel/internal/nmcsim"
)

// TestWireProfileRoundTrip pins the central serving invariant: a
// profile that goes through JSON and back assembles into the exact
// feature vector and prediction the in-process path produces.
func TestWireProfileRoundTrip(t *testing.T) {
	f := fixture(t)
	wp := NewWireProfile(f.prof)

	data, err := json.Marshal(PredictRequest{Profile: wp, Threads: f.threads})
	if err != nil {
		t.Fatal(err)
	}
	var req PredictRequest
	if err := json.Unmarshal(data, &req); err != nil {
		t.Fatal(err)
	}

	feat, totalInstrs, cfg, threads, err := req.assemble()
	if err != nil {
		t.Fatal(err)
	}
	if threads != f.threads {
		t.Fatalf("threads %d, want %d", threads, f.threads)
	}
	if totalInstrs != f.prof.TotalInstrs() {
		t.Fatalf("total instrs %g, want %g", totalInstrs, f.prof.TotalInstrs())
	}

	wantVec := f.prof.Vector()
	if len(feat) != len(wantVec)+10 {
		t.Fatalf("assembled vector length %d, want %d", len(feat), len(wantVec)+10)
	}
	for i, v := range wantVec {
		if feat[i] != v {
			t.Fatalf("profile feature %d = %g, want %g", i, feat[i], v)
		}
	}

	got := f.predA.PredictAssembled(feat, totalInstrs, cfg, threads)
	want := f.predA.Predict(f.prof, nmcsim.DefaultConfig(), f.threads)
	if got != want {
		t.Fatalf("wire prediction diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestWireProfileRejectsBadVectors(t *testing.T) {
	f := fixture(t)
	good := NewWireProfile(f.prof)

	missing := good
	missing.Features = map[string]float64{"mix_mem": 1}
	if _, err := missing.vector(); err == nil {
		t.Fatal("truncated feature map accepted")
	}

	renamed := good
	renamed.Features = make(map[string]float64, len(good.Features))
	for k, v := range good.Features {
		renamed.Features[k] = v
	}
	delete(renamed.Features, "mix_mem")
	renamed.Features["mix_bogus"] = 1
	if _, err := renamed.vector(); err == nil {
		t.Fatal("unknown feature name accepted")
	}

	badTotal := good
	badTotal.TotalInstrs = 0
	if _, err := badTotal.vector(); err == nil {
		t.Fatal("zero total_instrs accepted")
	}
}

func TestWireArchConfig(t *testing.T) {
	cfg, err := WireArch{}.config()
	if err != nil {
		t.Fatal(err)
	}
	if def := nmcsim.DefaultConfig(); cfg.PEs != def.PEs || cfg.FreqGHz != def.FreqGHz {
		t.Fatalf("empty arch is not the Table 3 baseline: %+v", cfg)
	}

	cfg, err = WireArch{PEs: 64, FreqGHz: 2, L1Lines: 64, L1Assoc: 4, Core: "ooo"}.config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PEs != 64 || cfg.FreqGHz != 2 || cfg.L1.Lines != 64 || cfg.L1.Assoc != 4 || cfg.Core != nmcsim.OutOfOrder {
		t.Fatalf("overrides lost: %+v", cfg)
	}

	// Shrinking the L1 line count must also shrink a now-impossible
	// associativity rather than failing validation.
	cfg, err = WireArch{L1Lines: 1}.config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L1.Assoc != 1 {
		t.Fatalf("assoc %d, want 1", cfg.L1.Assoc)
	}

	if _, err := (WireArch{Core: "quantum"}).config(); err == nil {
		t.Fatal("bad core accepted")
	}
	if _, err := (WireArch{PEs: -1, FreqGHz: -2}.config()); err != nil {
		t.Fatalf("negative overrides should be ignored, got %v", err)
	}
	if _, err := (WireArch{L1Assoc: 7}).config(); err == nil {
		t.Fatal("invalid cache geometry accepted")
	}
}

func TestWireHostEDP(t *testing.T) {
	if edp, err := (WireHost{EDP: 2.5}).edp(); err != nil || edp != 2.5 {
		t.Fatalf("edp = %g, %v", edp, err)
	}
	if edp, err := (WireHost{TimeSec: 2, EnergyJ: 3}).edp(); err != nil || edp != 6 {
		t.Fatalf("derived edp = %g, %v", edp, err)
	}
	if _, err := (WireHost{}).edp(); err == nil {
		t.Fatal("zero host accepted")
	}
}

// TestHitCurveMatchesProfile guards the wire profile's hit curve
// against drift from the profile's own estimate.
func TestHitCurveMatchesProfile(t *testing.T) {
	f := fixture(t)
	wp := NewWireProfile(f.prof)
	for _, lines := range []int{1, 2, 64, 4096} {
		want := f.prof.EstHitFraction(lines)
		idx := 0
		for 1<<(idx+1) <= lines {
			idx++
		}
		if idx >= len(wp.HitCurve) {
			idx = len(wp.HitCurve) - 1
		}
		if got := wp.HitCurve[idx]; got != want {
			t.Fatalf("hit curve at %d lines = %g, want %g", lines, got, want)
		}
	}
}

// TestExpectedMatchesServed is the correctness-prober contract: a client
// holding the same model file computes via Expected exactly the
// prediction the serving path returns — including after a JSON round
// trip of the request body, which must not perturb any float.
func TestExpectedMatchesServed(t *testing.T) {
	f := fixture(t)
	s, _ := newTestServer(t, Config{})
	req := PredictRequest{
		Profile: NewWireProfile(f.prof),
		Arch:    WireArch{PEs: 8, FreqGHz: 1.5},
		Threads: f.threads,
	}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	var wired PredictRequest
	if err := json.Unmarshal(body, &wired); err != nil {
		t.Fatal(err)
	}
	want, err := Expected(f.predA, &wired)
	if err != nil {
		t.Fatal(err)
	}
	var in input
	if err := decodeRequest(body, &in, nil); err != nil {
		t.Fatal(err)
	}
	resp, apiErr := s.predictOne(context.Background(), &in)
	if apiErr != nil {
		t.Fatalf("predictOne: %v", apiErr.msg)
	}
	if resp.EDP != want.EDP || resp.IPC != want.IPC || resp.EPI != want.EPI ||
		resp.TimeSec != want.TimeSec || resp.EnergyJ != want.EnergyJ {
		t.Fatalf("served %+v diverges from Expected %+v", resp, want)
	}
	// Assemble is the exported face of the private assemble.
	feat, totalInstrs, _, threads, err := wired.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if len(feat) == 0 || totalInstrs != wired.Profile.TotalInstrs || threads != f.threads {
		t.Fatalf("Assemble: len(feat)=%d totalInstrs=%g threads=%d", len(feat), totalInstrs, threads)
	}
}
