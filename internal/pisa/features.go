package pisa

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"napel/internal/stats"
	"napel/internal/trace"
)

// NumFeatures is the size of the application-profile feature vector. The
// paper's profile has 395 features ("Ultimately, the application profile
// p has 395 features"); the blocks below reproduce the same families
// (Table 1) and are counted to match exactly.
const NumFeatures = 395

// trafficCapacities are cache capacities (bytes) at which read/write
// memory traffic is reported as an explicit feature, complementing the
// full per-bucket traffic curves.
var trafficCapacities = [...]int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 8 << 20}

// featureBuilder accumulates (name, value) pairs.
type featureBuilder struct {
	names  []string
	values []float64
}

func (b *featureBuilder) add(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.names = append(b.names, name)
	b.values = append(b.values, v)
}

func (b *featureBuilder) addSeries(prefix string, vs []float64) {
	for i, v := range vs {
		b.add(fmt.Sprintf("%s_%d", prefix, i), v)
	}
}

// Vector returns the 395-entry feature vector.
func (p *Profile) Vector() []float64 {
	_, v := p.build()
	return v
}

// FeatureNames returns the names of the 395 features, index-aligned with
// Vector. They are computed once: every call returns the same slice,
// which callers must not modify.
func FeatureNames() []string { return featureNames() }

var featureNames = sync.OnceValue(func() []string {
	n, _ := NewProfiler().Profile().build()
	return n
})

// build assembles names and values together so they can never drift.
func (p *Profile) build() ([]string, []float64) {
	pr := p.pr
	b := &featureBuilder{
		names:  make([]string, 0, NumFeatures),
		values: make([]float64, 0, NumFeatures),
	}
	total := float64(pr.counter.Total)
	inv := 0.0
	if total > 0 {
		inv = 1 / total
	}

	// Block 1: instruction mix — 16 features.
	for op := trace.Op(0); op < trace.NumOps; op++ {
		b.add("mix_"+op.String(), float64(pr.counter.ByOp[op])*inv)
	}
	mem := float64(pr.counter.Mem())
	fp := float64(pr.counter.ByOp[trace.OpFPALU] + pr.counter.ByOp[trace.OpFPMul] + pr.counter.ByOp[trace.OpFPDiv])
	intc := float64(pr.counter.ByOp[trace.OpIntALU] + pr.counter.ByOp[trace.OpIntMul] + pr.counter.ByOp[trace.OpIntDiv])
	ctrl := float64(pr.counter.ByOp[trace.OpBranch] + pr.counter.ByOp[trace.OpCall])
	b.add("mix_mem", mem*inv)
	b.add("mix_fp", fp*inv)
	b.add("mix_int", intc*inv)
	b.add("mix_ctrl", ctrl*inv)
	b.add("mix_store_per_mem", ratio(float64(pr.counter.ByOp[trace.OpStore]), mem))

	// Block 2: dataflow ILP at 8 window sizes — 8 features.
	for w, size := range ilpWindows {
		name := fmt.Sprintf("ilp_w%d", size)
		if size == 0 {
			name = "ilp_inf"
		}
		b.add(name, pr.ilp.ILP(w))
	}
	// Block 3: marginal ILP gains between consecutive windows — 7.
	for w := 1; w < numWindows; w++ {
		b.add(fmt.Sprintf("ilp_gain_%d", w), ratio(pr.ilp.ILP(w), pr.ilp.ILP(w-1)))
	}

	// Blocks 4-7: data reuse-distance distributions — 4 × 32 = 128.
	b.addSeries("reuse_data_pdf", pr.dataHist.Fractions())
	b.addSeries("reuse_data_cdf", pr.dataHist.CDF())
	b.addSeries("reuse_read_pdf", pr.readHist.Fractions())
	b.addSeries("reuse_write_pdf", pr.writeHist.Fractions())

	// Blocks 8-9: instruction reuse distributions — 2 × 24 = 48.
	b.addSeries("reuse_inst_pdf", pr.instHist.Fractions())
	b.addSeries("reuse_inst_cdf", pr.instHist.CDF())

	// Blocks 10-11: memory traffic beyond each reuse threshold — the
	// fraction of reads/writes that must reach memory when a cache holds
	// 2^i lines (Table 1 "memory traffic") — 2 × 32 = 64.
	readTraffic := trafficCurve(pr.readHist, pr.coldReads())
	writeTraffic := trafficCurve(pr.writeHist, pr.coldWrites())
	b.addSeries("traffic_read", readTraffic)
	b.addSeries("traffic_write", writeTraffic)

	// Block 12: traffic at named cache capacities — 2 × 8 = 16.
	for _, capBytes := range trafficCapacities {
		bucket := stats.Log2Bucket(uint64(capBytes / LineGranularity))
		if bucket >= reuseBuckets {
			bucket = reuseBuckets - 1
		}
		b.add(fmt.Sprintf("traffic_read_at_%dB", capBytes), readTraffic[bucket])
	}
	for _, capBytes := range trafficCapacities {
		bucket := stats.Log2Bucket(uint64(capBytes / LineGranularity))
		if bucket >= reuseBuckets {
			bucket = reuseBuckets - 1
		}
		b.add(fmt.Sprintf("traffic_write_at_%dB", capBytes), writeTraffic[bucket])
	}

	// Blocks 13-14: stride distributions — 2 × 32 = 64.
	b.addSeries("stride_local_pdf", pr.localHist.Fractions())
	b.addSeries("stride_global_pdf", pr.globalHist.Fractions())

	// Block 15: stride summary — 8.
	b.add("stride_local_zero", ratio(float64(pr.localZero), float64(pr.localHist.Total)))
	b.add("stride_local_unit", ratio(float64(pr.localUnit), float64(pr.localHist.Total)))
	b.add("stride_global_zero", ratio(float64(pr.globalZero), float64(pr.globalHist.Total)))
	b.add("stride_global_unit", ratio(float64(pr.globalUnit), float64(pr.globalHist.Total)))
	b.add("stride_local_meanlog", histMeanBucket(pr.localHist))
	b.add("stride_global_meanlog", histMeanBucket(pr.globalHist))
	b.add("stride_sites_log2", log2p1(float64(len(pr.localLast))))
	b.add("stride_mem_per_site", ratio(mem, float64(len(pr.localLast))))

	// Block 16: register traffic — 8 (Table 1 "register traffic").
	uniqueRegs := 0
	for _, seen := range pr.regSeen {
		if seen {
			uniqueRegs++
		}
	}
	srcs := float64(pr.srcOps)
	dsts := float64(pr.dstOps)
	b.add("reg_srcs_per_inst", srcs*inv)
	b.add("reg_dsts_per_inst", dsts*inv)
	b.add("reg_ops_per_inst", (srcs+dsts)*inv)
	b.add("reg_unique", float64(uniqueRegs))
	b.add("reg_src_per_dst", ratio(srcs, dsts))
	b.add("reg_unique_frac", float64(uniqueRegs)/256)
	b.add("reg_srcs_per_mem", ratio(srcs, mem))
	b.add("reg_dsts_per_fp", ratio(dsts, fp))

	// Block 17: branch behaviour — 8.
	branches := float64(pr.counter.ByOp[trace.OpBranch])
	b.add("branch_frac", branches*inv)
	b.add("branch_taken_frac", ratio(float64(pr.branchTaken), branches))
	b.add("branch_sites_log2", log2p1(float64(len(pr.branchSites))))
	b.add("branch_per_mem", ratio(branches, mem))
	bias, entropy, biased := pr.branchSummary()
	b.add("branch_avg_bias", bias)
	b.add("branch_entropy", entropy)
	b.add("branch_biased_frac", biased)
	b.add("branch_per_site", ratio(branches, float64(len(pr.branchSites))))

	// Block 18: footprint and memory summary — 12 (Table 1 "memory
	// footprint" plus reuse summaries).
	lines := float64(pr.dataReuse.Distinct())
	b.add("footprint_lines_log2", log2p1(lines))
	b.add("footprint_pages_log2", log2p1(float64(pr.pages.len())))
	b.add("footprint_bytes_log2", log2p1(lines*LineGranularity))
	b.add("mem_bytes_per_inst", (float64(pr.bytesRead)+float64(pr.bytesWrite))*inv)
	b.add("mem_read_bytes_frac", ratio(float64(pr.bytesRead), float64(pr.bytesRead)+float64(pr.bytesWrite)))
	b.add("mem_avg_access_size", ratio(float64(pr.bytesRead)+float64(pr.bytesWrite), mem))
	b.add("mem_loads_per_store", ratio(float64(pr.counter.ByOp[trace.OpLoad]), float64(pr.counter.ByOp[trace.OpStore])))
	b.add("mem_per_alu", ratio(mem, intc+fp))
	b.add("reuse_data_cold_frac", ratio(float64(pr.coldData), mem))
	b.add("reuse_inst_cold_frac", float64(pr.coldInst)*inv)
	b.add("reuse_data_meanlog", histMeanBucket(pr.dataHist))
	b.add("reuse_inst_meanlog", histMeanBucket(pr.instHist))

	// Block 19: memory mix detail — 6.
	b.add("mem_read_frac", ratio(float64(pr.counter.ByOp[trace.OpLoad]), mem))
	b.add("mem_write_frac", ratio(float64(pr.counter.ByOp[trace.OpStore]), mem))
	b.add("mem_intensity", mem*inv)
	b.add("fp_per_mem", ratio(fp, mem))
	b.add("int_per_mem", ratio(intc, mem))
	b.add("bytes_per_mem", ratio(float64(pr.bytesRead)+float64(pr.bytesWrite), mem))

	// Block 20: totals — 2.
	b.add("total_inst_log2", log2p1(p.TotalInstrs()))
	b.add("total_mem_log2", log2p1(mem/pr.coverage))

	if len(b.values) != NumFeatures {
		panic(fmt.Sprintf("pisa: feature vector has %d entries, want %d", len(b.values), NumFeatures))
	}
	return b.names, b.values
}

// coldReads estimates first-touch reads (cold misses are not classified
// by type in the tracker; they are apportioned by the read share).
func (pr *Profiler) coldReads() uint64 {
	mem := pr.counter.Mem()
	if mem == 0 {
		return 0
	}
	return pr.coldData * pr.counter.ByOp[trace.OpLoad] / mem
}

func (pr *Profiler) coldWrites() uint64 {
	return pr.coldData - pr.coldReads()
}

// trafficCurve returns, per log2 reuse-distance bucket i, the fraction of
// accesses that travel to memory when a cache retains 2^i lines: cold
// misses plus every access with stack distance ≥ 2^i.
func trafficCurve(h *stats.Histogram, cold uint64) []float64 {
	out := make([]float64, len(h.Counts))
	total := h.Total + cold
	if total == 0 {
		return out
	}
	cdf := h.CDF()
	for i := range out {
		hits := cdf[i] * float64(h.Total)
		out[i] = clamp01((float64(total) - hits) / float64(total))
	}
	return out
}

// histMeanBucket is the mean log2 bucket index of a histogram.
func histMeanBucket(h *stats.Histogram) float64 {
	if h.Total == 0 {
		return 0
	}
	s := 0.0
	for i, c := range h.Counts {
		s += float64(i) * float64(c)
	}
	return s / float64(h.Total)
}

// branchSummary returns the access-weighted average branch bias, the
// average per-site branch entropy (bits) and the fraction of sites with
// bias above 0.9.
func (pr *Profiler) branchSummary() (bias, entropy, biasedFrac float64) {
	if len(pr.branchSites) == 0 {
		return 0, 0, 0
	}
	// Floating-point sums depend on their order, so sites are added in
	// ascending PC order rather than map order: a profile's features are
	// then bit-identical from run to run.
	pcs := make([]uint32, 0, len(pr.branchSites))
	for pc := range pr.branchSites {
		pcs = append(pcs, pc)
	}
	slices.Sort(pcs)
	var totalW float64
	var biasedSites int
	for _, pc := range pcs {
		s := pr.branchSites[pc]
		p := float64(s.taken) / float64(s.total)
		w := float64(s.total)
		bmax := p
		if 1-p > bmax {
			bmax = 1 - p
		}
		bias += bmax * w
		entropy += binaryEntropy(p) * w
		totalW += w
		if bmax > 0.9 {
			biasedSites++
		}
	}
	return bias / totalW, entropy / totalW, float64(biasedSites) / float64(len(pr.branchSites))
}

func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// WriteJSON emits the profile as a JSON object of name→value pairs plus
// the trace summary — the interchange format for external analysis or
// plotting tools.
func (p *Profile) WriteJSON(w io.Writer) error {
	names, values := p.build()
	obj := struct {
		SimInstrs   uint64             `json:"sim_instrs"`
		Coverage    float64            `json:"coverage"`
		TotalInstrs float64            `json:"total_instrs"`
		Footprint   float64            `json:"footprint_bytes"`
		Features    map[string]float64 `json:"features"`
	}{
		SimInstrs:   p.SimInstrs(),
		Coverage:    p.Coverage(),
		TotalInstrs: p.TotalInstrs(),
		Footprint:   p.FootprintBytes(),
		Features:    make(map[string]float64, len(names)),
	}
	for i, n := range names {
		obj.Features[n] = values[i]
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(obj)
}
