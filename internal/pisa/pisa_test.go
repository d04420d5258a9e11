package pisa

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"napel/internal/stats"
	"napel/internal/trace"
	"napel/internal/xrand"
)

// naiveStackDistance is the textbook O(n·F) reference: an explicit LRU
// stack of keys.
type naiveStackDistance struct {
	stack []uint64
}

func (n *naiveStackDistance) access(key uint64) uint64 {
	for i, k := range n.stack {
		if k == key {
			n.stack = append(n.stack[:i], n.stack[i+1:]...)
			n.stack = append([]uint64{key}, n.stack...)
			return uint64(i)
		}
	}
	n.stack = append([]uint64{key}, n.stack...)
	return coldDistance
}

func TestReuseTrackerAgainstNaive(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 20; trial++ {
		tr := newReuseTracker(uint64(trial))
		ref := &naiveStackDistance{}
		keyspace := 1 + rng.Intn(200)
		for i := 0; i < 3000; i++ {
			key := uint64(rng.Intn(keyspace))
			got := tr.Access(key)
			want := ref.access(key)
			if got != want {
				t.Fatalf("trial %d access %d key %d: distance %d, want %d", trial, i, key, got, want)
			}
		}
		if tr.Distinct() != len(ref.stack) {
			t.Fatalf("distinct %d, want %d", tr.Distinct(), len(ref.stack))
		}
	}
}

func TestReuseTrackerSequentialPattern(t *testing.T) {
	tr := newReuseTracker(1)
	// First touch of each key is cold.
	for k := uint64(0); k < 100; k++ {
		if d := tr.Access(k); d != coldDistance {
			t.Fatalf("first touch of %d had distance %d", k, d)
		}
	}
	// Re-walking them in the same order gives distance 99 every time.
	for k := uint64(0); k < 100; k++ {
		if d := tr.Access(k); d != 99 {
			t.Fatalf("cyclic reuse of %d gave %d, want 99", k, d)
		}
	}
	// Immediate reuse has distance 0.
	if d := tr.Access(99); d != 0 {
		t.Fatalf("immediate reuse distance %d", d)
	}
}

func TestReuseTrackerProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, span uint8) bool {
		rng := xrand.New(seed)
		tr := newReuseTracker(seed)
		ref := &naiveStackDistance{}
		ks := int(span%50) + 1
		for i := 0; i < 500; i++ {
			key := uint64(rng.Intn(ks))
			if tr.Access(key) != ref.access(key) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestILPDependentChain(t *testing.T) {
	ilp := newILPTracker()
	// A fully serial chain: every op reads the previous op's output.
	for i := 0; i < 1000; i++ {
		ilp.OnInst(trace.Inst{Op: trace.OpIntALU, Dst: 1, Src1: 1, Src2: trace.NoReg})
	}
	for w := range ilpWindows {
		if got := ilp.ILP(w); math.Abs(got-1) > 0.01 {
			t.Errorf("window %d: serial chain ILP = %v, want 1", ilpWindows[w], got)
		}
	}
}

func TestILPIndependentOps(t *testing.T) {
	ilp := newILPTracker()
	// Fully independent ops round-robin over many registers.
	for i := 0; i < 10000; i++ {
		r := int16(i % 200)
		ilp.OnInst(trace.Inst{Op: trace.OpIntALU, Dst: r, Src1: trace.NoReg, Src2: trace.NoReg})
	}
	// Bounded windows limit ILP to roughly the window size.
	for w, size := range ilpWindows {
		got := ilp.ILP(w)
		if size == 0 {
			if got < 1000 {
				t.Errorf("unbounded ILP = %v, want very large", got)
			}
			continue
		}
		if got > float64(size)+1 {
			t.Errorf("window %d: ILP %v exceeds window", size, got)
		}
		if got < float64(size)/2 {
			t.Errorf("window %d: ILP %v far below window", size, got)
		}
	}
}

func TestILPWindowMonotone(t *testing.T) {
	rng := xrand.New(9)
	ilp := newILPTracker()
	for i := 0; i < 5000; i++ {
		ilp.OnInst(trace.Inst{
			Op:   trace.OpFPALU,
			Dst:  int16(rng.Intn(32)),
			Src1: int16(rng.Intn(32)),
			Src2: int16(rng.Intn(32)),
		})
	}
	for w := 1; w < numWindows; w++ {
		if ilp.ILP(w)+1e-9 < ilp.ILP(w-1) {
			t.Fatalf("ILP decreased with window growth: w%d=%v > w%d=%v",
				ilpWindows[w-1], ilp.ILP(w-1), ilpWindows[w], ilp.ILP(w))
		}
	}
}

func TestILPStoreLoadForwarding(t *testing.T) {
	ilp := newILPTracker()
	// store to X (from a long dependency chain), then a load of X: the
	// load must inherit the chain depth.
	for i := 0; i < 100; i++ {
		ilp.OnInst(trace.Inst{Op: trace.OpIntALU, Dst: 1, Src1: 1, Src2: trace.NoReg})
	}
	ilp.OnInst(trace.Inst{Op: trace.OpStore, Addr: 0x1000, Src1: 1, Dst: trace.NoReg, Src2: trace.NoReg})
	ilp.OnInst(trace.Inst{Op: trace.OpLoad, Addr: 0x1000, Dst: 2, Src1: trace.NoReg, Src2: trace.NoReg})
	w := numWindows - 1 // unbounded
	if got := ilp.ILP(w); got > 1.1 {
		t.Errorf("memory dependence ignored: ILP = %v", got)
	}
}

// TestFeatureNamesAllocationFree pins the memoization: napel-serve
// orders every request's features by these names, so after the first
// call FeatureNames must hand back the shared slice without building a
// profiler.
func TestFeatureNamesAllocationFree(t *testing.T) {
	first := FeatureNames()
	if n := testing.AllocsPerRun(100, func() { _ = FeatureNames() }); n != 0 {
		t.Fatalf("FeatureNames allocates %.1f/op after the first call", n)
	}
	if again := FeatureNames(); &again[0] != &first[0] {
		t.Fatal("FeatureNames returned a different slice")
	}
}

func TestFeatureVectorSize(t *testing.T) {
	p := NewProfiler()
	// Even an empty profile must produce the full, finite vector.
	vec := p.Profile().Vector()
	if len(vec) != NumFeatures {
		t.Fatalf("empty profile vector has %d entries, want %d", len(vec), NumFeatures)
	}
	names := FeatureNames()
	if len(names) != NumFeatures {
		t.Fatalf("%d feature names, want %d", len(names), NumFeatures)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

func TestFeaturesFinite(t *testing.T) {
	rng := xrand.New(17)
	p := NewProfiler()
	tr := trace.NewTracer(0, p)
	for i := 0; i < 20000; i++ {
		switch rng.Intn(5) {
		case 0:
			tr.Load(rng.Intn(30), uint64(rng.Intn(1<<20)), 8, int16(rng.Intn(16)), int16(rng.Intn(16)))
		case 1:
			tr.Store(rng.Intn(30), uint64(rng.Intn(1<<20)), 8, int16(rng.Intn(16)))
		case 2:
			tr.FP(rng.Intn(30), int16(rng.Intn(16)), int16(rng.Intn(16)), int16(rng.Intn(16)))
		case 3:
			tr.Branch(rng.Intn(30), rng.Intn(2) == 0, int16(rng.Intn(16)))
		default:
			tr.Int(rng.Intn(30), int16(rng.Intn(16)), int16(rng.Intn(16)), int16(rng.Intn(16)))
		}
	}
	for i, v := range p.Profile().Vector() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %d (%s) is not finite: %v", i, FeatureNames()[i], v)
		}
	}
}

func TestMixFractionsSumToOne(t *testing.T) {
	p := NewProfiler()
	tr := trace.NewTracer(0, p)
	tr.Load(0, 0, 8, 1, 2)
	tr.Store(1, 64, 8, 1)
	tr.Int(2, 1, 2, 3)
	tr.FPMul(3, 4, 5, 6)
	prof := p.Profile()
	names := FeatureNames()
	vec := prof.Vector()
	sum := 0.0
	for i, n := range names {
		if len(n) > 4 && n[:4] == "mix_" && n != "mix_mem" && n != "mix_fp" && n != "mix_int" && n != "mix_ctrl" && n != "mix_store_per_mem" {
			sum += vec[i]
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("op-class mix sums to %v", sum)
	}
}

func TestFootprintCounting(t *testing.T) {
	p := NewProfiler()
	tr := trace.NewTracer(0, p)
	// 10 distinct lines, each touched twice.
	for rep := 0; rep < 2; rep++ {
		for l := 0; l < 10; l++ {
			tr.Load(0, uint64(l*LineGranularity), 8, 1, 2)
		}
	}
	prof := p.Profile()
	if got := prof.FootprintBytes(); got != 10*LineGranularity {
		t.Fatalf("footprint %v, want %d", got, 10*LineGranularity)
	}
	if got := prof.MemFraction(); got != 1 {
		t.Fatalf("mem fraction %v, want 1", got)
	}
}

func TestEstHitFraction(t *testing.T) {
	p := NewProfiler()
	tr := trace.NewTracer(0, p)
	// Cyclic walk over 4 lines: distance 3 for every warm access.
	for i := 0; i < 400; i++ {
		tr.Load(0, uint64((i%4)*LineGranularity), 8, 1, 2)
	}
	prof := p.Profile()
	// A cache holding >= 4 lines captures everything but cold misses.
	if hit := prof.EstHitFraction(8); hit < 0.95 {
		t.Errorf("hit fraction at 8 lines = %v, want ~0.99", hit)
	}
	// A cache holding 2 lines captures nothing (distance 3 >= 2).
	if hit := prof.EstHitFraction(2); hit > 0.05 {
		t.Errorf("hit fraction at 2 lines = %v, want ~0", hit)
	}
	if h := prof.EstHitFraction(1); h < 0 || h > 1 {
		t.Errorf("hit fraction out of range: %v", h)
	}
}

func TestHitFractionCurve(t *testing.T) {
	p := NewProfiler()
	tr := trace.NewTracer(0, p)
	rng := xrand.New(9)
	// A mixed pattern: a hot cyclic set plus a cold random tail, so the
	// curve has structure at several capacities.
	for i := 0; i < 5000; i++ {
		line := uint64(i % 7)
		if i%5 == 0 {
			line = 16 + uint64(rng.Intn(4000))
		}
		tr.Load(0, line*LineGranularity, 8, 1, 2)
	}
	prof := p.Profile()
	curve := prof.HitFractionCurve()
	if len(curve) != reuseBuckets+1 {
		t.Fatalf("curve length %d, want %d", len(curve), reuseBuckets+1)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatalf("curve not monotone at %d: %v < %v", i, curve[i], curve[i-1])
		}
	}
	// The curve must reproduce EstHitFraction at arbitrary (also
	// non-power-of-two and out-of-range) line counts via log2 indexing.
	for _, lines := range []int{1, 2, 3, 4, 7, 8, 100, 1 << 12, 1 << 30, 1 << 40} {
		idx := stats.Log2Bucket(uint64(lines))
		if idx >= len(curve) {
			idx = len(curve) - 1
		}
		if got, want := curve[idx], prof.EstHitFraction(lines); got != want {
			t.Fatalf("curve at %d lines = %v, want EstHitFraction = %v", lines, got, want)
		}
	}
}

func TestCoverageExtrapolation(t *testing.T) {
	p := NewProfiler()
	tr := trace.NewTracer(0, p)
	for i := 0; i < 1000; i++ {
		tr.Int(0, 1, 2, 3)
	}
	p.SetCoverage(0.25)
	prof := p.Profile()
	if got := prof.TotalInstrs(); got != 4000 {
		t.Fatalf("TotalInstrs = %v, want 4000", got)
	}
	if prof.SimInstrs() != 1000 {
		t.Fatalf("SimInstrs = %d", prof.SimInstrs())
	}
}

func TestBranchFeatures(t *testing.T) {
	p := NewProfiler()
	tr := trace.NewTracer(0, p)
	// Site 0: always taken. Site 1: 50/50.
	for i := 0; i < 100; i++ {
		tr.Branch(0, true, 1)
		tr.Branch(1, i%2 == 0, 1)
	}
	names := FeatureNames()
	vec := p.Profile().Vector()
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}
	if got := vec[idx["branch_taken_frac"]]; math.Abs(got-0.75) > 1e-9 {
		t.Errorf("taken fraction %v, want 0.75", got)
	}
	// Average entropy: site0 contributes 0, site1 contributes 1 bit.
	if got := vec[idx["branch_entropy"]]; math.Abs(got-0.5) > 0.01 {
		t.Errorf("entropy %v, want ~0.5", got)
	}
	if got := vec[idx["branch_biased_frac"]]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("biased fraction %v, want 0.5", got)
	}
}

func TestStrideClassification(t *testing.T) {
	p := NewProfiler()
	tr := trace.NewTracer(0, p)
	// Site 0: perfect unit stride (8-byte elements).
	for i := 0; i < 100; i++ {
		tr.Load(0, uint64(i*8), 8, 1, 2)
	}
	names := FeatureNames()
	vec := p.Profile().Vector()
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}
	if got := vec[idx["stride_local_unit"]]; got < 0.98 {
		t.Errorf("unit stride fraction %v, want ~1", got)
	}
	if got := vec[idx["stride_sites_log2"]]; got != 1 {
		t.Errorf("site count log2(1+1) = %v, want 1", got)
	}
}

func TestTrafficCurveMonotone(t *testing.T) {
	rng := xrand.New(5)
	p := NewProfiler()
	tr := trace.NewTracer(0, p)
	for i := 0; i < 50000; i++ {
		tr.Load(rng.Intn(20), uint64(rng.Intn(1<<22)), 8, 1, 2)
	}
	names := FeatureNames()
	vec := p.Profile().Vector()
	prev := math.Inf(1)
	for i, n := range names {
		if len(n) >= 13 && n[:13] == "traffic_read_" && n[13] >= '0' && n[13] <= '9' {
			if vec[i] > prev+1e-9 {
				t.Fatalf("traffic curve not non-increasing at %s", n)
			}
			prev = vec[i]
		}
	}
}

func TestMTFTrackerAgainstNaive(t *testing.T) {
	rng := xrand.New(31)
	mtf := newMTFTracker()
	ref := &naiveStackDistance{}
	for i := 0; i < 5000; i++ {
		key := uint64(rng.Intn(40))
		if got, want := mtf.Access(key), ref.access(key); got != want {
			t.Fatalf("access %d key %d: %d want %d", i, key, got, want)
		}
	}
	if mtf.Distinct() != len(ref.stack) {
		t.Fatalf("distinct %d want %d", mtf.Distinct(), len(ref.stack))
	}
}

func TestProfileWriteJSON(t *testing.T) {
	p := NewProfiler()
	tr := trace.NewTracer(0, p)
	for i := 0; i < 1000; i++ {
		tr.Load(0, uint64(i)*64, 8, 1, 2)
		tr.FP(1, 3, 1, 2)
	}
	p.SetCoverage(0.5)
	var buf bytes.Buffer
	if err := p.Profile().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back struct {
		SimInstrs   uint64             `json:"sim_instrs"`
		Coverage    float64            `json:"coverage"`
		TotalInstrs float64            `json:"total_instrs"`
		Features    map[string]float64 `json:"features"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.SimInstrs != 2000 || back.Coverage != 0.5 || back.TotalInstrs != 4000 {
		t.Fatalf("summary wrong: %+v", back)
	}
	if len(back.Features) != NumFeatures {
		t.Fatalf("%d features in JSON, want %d", len(back.Features), NumFeatures)
	}
	if back.Features["mix_load"] != 0.5 {
		t.Fatalf("mix_load = %v, want 0.5", back.Features["mix_load"])
	}
}

// TestBranchSummaryDeterministic: the branch features sum floating-point
// terms across sites, so the sum must not follow map iteration order —
// every call on one profile returns the same bits.
func TestBranchSummaryDeterministic(t *testing.T) {
	p := NewProfiler()
	for site := uint32(0); site < 64; site++ {
		for n := uint32(0); n < 3+site*7%41; n++ {
			p.OnInst(trace.Inst{Op: trace.OpBranch, PC: 1000 + site, Dst: trace.NoReg,
				Src1: trace.NoReg, Src2: trace.NoReg, Taken: site%4 == 0 || n%(2+site%5) == 0})
		}
	}
	bias, entropy, biased := p.branchSummary()
	for call := 0; call < 200; call++ {
		b, e, f := p.branchSummary()
		if math.Float64bits(b) != math.Float64bits(bias) || math.Float64bits(e) != math.Float64bits(entropy) ||
			math.Float64bits(f) != math.Float64bits(biased) {
			t.Fatalf("call %d: (%v, %v, %v), first call (%v, %v, %v)", call, b, e, f, bias, entropy, biased)
		}
	}
}
