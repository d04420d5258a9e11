// Package rf implements random forest regression (Breiman, 2001) — the
// ensemble learner at the heart of NAPEL. Each tree is a CART regression
// tree grown on a bootstrap sample, considering a random subset of
// features at every split (mtry); the forest prediction is the mean of
// the tree predictions. The implementation is deterministic given the
// training seed and depends only on the standard library.
package rf

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"napel/internal/ml"
	"napel/internal/xrand"
)

// Params are the forest hyper-parameters NAPEL tunes (Section 2.5).
type Params struct {
	Trees      int     // number of trees (default 100)
	MaxDepth   int     // maximum tree depth (0 = unlimited)
	MinLeaf    int     // minimum samples per leaf (default 1)
	MTry       int     // features considered per split (0 = p/3, the regression default)
	SampleFrac float64 // bootstrap sample fraction (default 1.0, with replacement)
}

// withDefaults fills zero fields.
func (p Params) withDefaults(numFeatures int) Params {
	if p.Trees <= 0 {
		p.Trees = 100
	}
	if p.MinLeaf <= 0 {
		p.MinLeaf = 1
	}
	if p.MTry <= 0 {
		p.MTry = numFeatures / 3
	}
	if p.MTry < 1 {
		p.MTry = 1
	}
	if p.MTry > numFeatures {
		p.MTry = numFeatures
	}
	if p.SampleFrac <= 0 || p.SampleFrac > 1 {
		p.SampleFrac = 1
	}
	return p
}

// String names the configuration (used in tuning reports).
func (p Params) String() string {
	return fmt.Sprintf("rf(trees=%d,depth=%d,minleaf=%d,mtry=%d)", p.Trees, p.MaxDepth, p.MinLeaf, p.MTry)
}

// node is one tree node in a flat arena, 16 bytes. A tree is laid out
// in preorder, so a split's left child is always the next node and only
// the right child needs a link.
type node struct {
	v       float64 // split threshold (go left if x <= v), or leaf prediction
	feature int32   // split feature, -1 for leaves
	right   int32   // right child of a split
}

type tree struct {
	nodes []node
}

func (t *tree) predict(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.v
		}
		if x[n.feature] <= n.v {
			i++
		} else {
			i = n.right
		}
	}
}

// Forest is a trained random forest regression model.
type Forest struct {
	trees      []tree
	params     Params
	importance []float64 // SSE reduction attributed to each feature
	oobMRE     float64   // out-of-bag mean relative error (-1 if unavailable)
	// counts is each tree's node count in a forest read from a version
	// 3 header, until ReadNodes builds its trees.
	counts []int64
}

// OOBMRE returns the out-of-bag mean relative error estimated during
// training: each training row is predicted by only the trees whose
// bootstrap sample excluded it, giving an unbiased validation signal
// without a held-out set. Returns -1 when no row was out of bag (e.g.
// SampleFrac so small every tree saw every row, or a deserialized
// forest).
func (f *Forest) OOBMRE() float64 { return f.oobMRE }

// Predict implements ml.Model: the mean of the tree predictions.
func (f *Forest) Predict(x []float64) float64 {
	s := 0.0
	for i := range f.trees {
		s += f.trees[i].predict(x)
	}
	return s / float64(len(f.trees))
}

// Importance returns per-feature importance: total SSE reduction across
// all splits on that feature, normalized to sum to 1 (all zeros if the
// forest is a single leaf).
func (f *Forest) Importance() []float64 {
	out := make([]float64, len(f.importance))
	total := 0.0
	for _, v := range f.importance {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range f.importance {
		out[i] = v / total
	}
	return out
}

// Train grows a forest on d with the given hyper-parameters. Trees are
// independent, so they are built in parallel across the available CPUs;
// each tree's generator is derived up front from the seed, which keeps
// the result bit-identical regardless of scheduling.
func Train(d *ml.Dataset, p Params, seed uint64) (*Forest, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	numF := d.NumFeatures()
	p = p.withDefaults(numF)
	f := &Forest{
		trees:      make([]tree, p.Trees),
		params:     p,
		importance: make([]float64, numF),
	}
	rng := xrand.New(seed)
	treeRngs := make([]*xrand.Rand, p.Trees)
	for i := range treeRngs {
		treeRngs[i] = rng.Split()
	}
	n := d.NumRows()
	sampleN := int(float64(n) * p.SampleFrac)
	if sampleN < 1 {
		sampleN = 1
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > p.Trees {
		workers = p.Trees
	}
	perTreeImp := make([][]float64, p.Trees)
	inBag := make([][]bool, p.Trees)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := &builder{d: d, p: p}
			for {
				ti := int(next.Add(1)) - 1
				if ti >= p.Trees {
					return
				}
				treeRng := treeRngs[ti]
				idx := make([]int, sampleN)
				bag := make([]bool, n)
				for i := range idx {
					r := treeRng.Intn(n) // bootstrap with replacement
					idx[i] = r
					bag[r] = true
				}
				b.rng = treeRng
				b.nodes = b.nodes[:0]
				b.imp = make([]float64, numF)
				b.build(idx, 0)
				f.trees[ti].nodes = append([]node(nil), b.nodes...)
				perTreeImp[ti] = b.imp
				inBag[ti] = bag
			}
		}()
	}
	wg.Wait()
	for _, imp := range perTreeImp {
		for j, v := range imp {
			f.importance[j] += v
		}
	}
	f.oobMRE = oobError(d, f, inBag)
	return f, nil
}

// oobError computes the out-of-bag mean relative error: each row is
// predicted by the trees that never sampled it.
func oobError(d *ml.Dataset, f *Forest, inBag [][]bool) float64 {
	var sum float64
	var count int
	for r := 0; r < d.NumRows(); r++ {
		var pred float64
		var trees int
		for ti := range f.trees {
			if !inBag[ti][r] {
				pred += f.trees[ti].predict(d.X[r])
				trees++
			}
		}
		if trees == 0 {
			continue
		}
		pred /= float64(trees)
		y := d.Y[r]
		if y == 0 {
			continue
		}
		sum += abs(pred-y) / abs(y)
		count++
	}
	if count == 0 {
		return -1
	}
	return sum / float64(count)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// builder grows one tree at a time, reusing scratch buffers.
type builder struct {
	d     *ml.Dataset
	p     Params
	rng   *xrand.Rand
	nodes []node
	imp   []float64
	feats []int // feature sampling scratch
	order []srt // split-scan scratch
}

type srt struct {
	v, y float64
}

// build grows the subtree over rows idx at the given depth and returns
// its node index.
func (b *builder) build(idx []int, depth int) int32 {
	me := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{feature: -1})

	mean, sse := meanSSE(b.d, idx)
	b.nodes[me].v = mean
	if len(idx) < 2*b.p.MinLeaf || sse <= 1e-12 ||
		(b.p.MaxDepth > 0 && depth >= b.p.MaxDepth) {
		return me
	}

	bestFeat, bestThresh, bestGain := -1, 0.0, 0.0
	numF := b.d.NumFeatures()
	b.sampleFeatures(numF)
	for _, feat := range b.feats {
		thresh, gain, ok := b.bestSplit(idx, feat, sse)
		if ok && gain > bestGain {
			bestFeat, bestThresh, bestGain = feat, thresh, gain
		}
	}
	if bestFeat < 0 {
		return me
	}

	left := make([]int, 0, len(idx))
	right := make([]int, 0, len(idx))
	for _, r := range idx {
		if b.d.X[r][bestFeat] <= bestThresh {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if len(left) < b.p.MinLeaf || len(right) < b.p.MinLeaf {
		return me
	}
	b.imp[bestFeat] += bestGain
	b.nodes[me].feature = int32(bestFeat)
	b.nodes[me].v = bestThresh
	b.build(left, depth+1) // appended next: the left child is me+1
	r := b.build(right, depth+1)
	b.nodes[me].right = r
	return me
}

// sampleFeatures fills b.feats with MTry distinct feature indices.
func (b *builder) sampleFeatures(numF int) {
	if cap(b.feats) < numF {
		b.feats = make([]int, numF)
	}
	b.feats = b.feats[:numF]
	for i := range b.feats {
		b.feats[i] = i
	}
	// Partial Fisher–Yates: the first MTry entries are the sample.
	for i := 0; i < b.p.MTry; i++ {
		j := i + b.rng.Intn(numF-i)
		b.feats[i], b.feats[j] = b.feats[j], b.feats[i]
	}
	b.feats = b.feats[:b.p.MTry]
}

// bestSplit scans feature feat over rows idx for the threshold that
// maximizes SSE reduction. parentSSE is the node's total SSE.
func (b *builder) bestSplit(idx []int, feat int, parentSSE float64) (thresh, gain float64, ok bool) {
	if cap(b.order) < len(idx) {
		b.order = make([]srt, len(idx))
	}
	b.order = b.order[:len(idx)]
	for i, r := range idx {
		b.order[i] = srt{v: b.d.X[r][feat], y: b.d.Y[r]}
	}
	sort.Slice(b.order, func(i, j int) bool { return b.order[i].v < b.order[j].v })
	n := len(b.order)
	if b.order[0].v == b.order[n-1].v {
		return 0, 0, false // constant feature on this node
	}

	var sumL, sqL float64
	var sumR, sqR float64
	for _, o := range b.order {
		sumR += o.y
		sqR += o.y * o.y
	}
	nl := 0
	best := -1.0
	for i := 0; i < n-1; i++ {
		y := b.order[i].y
		sumL += y
		sqL += y * y
		sumR -= y
		sqR -= y * y
		nl++
		if b.order[i].v == b.order[i+1].v {
			continue // can't split between equal values
		}
		nr := n - nl
		if nl < b.p.MinLeaf || nr < b.p.MinLeaf {
			continue
		}
		sseL := sqL - sumL*sumL/float64(nl)
		sseR := sqR - sumR*sumR/float64(nr)
		g := parentSSE - (sseL + sseR)
		if g > best {
			best = g
			thresh = (b.order[i].v + b.order[i+1].v) / 2
		}
	}
	if best <= 0 {
		return 0, 0, false
	}
	return thresh, best, true
}

// meanSSE returns the mean and sum of squared errors of Y over idx.
func meanSSE(d *ml.Dataset, idx []int) (mean, sse float64) {
	if len(idx) == 0 {
		return 0, 0
	}
	for _, r := range idx {
		mean += d.Y[r]
	}
	mean /= float64(len(idx))
	for _, r := range idx {
		dv := d.Y[r] - mean
		sse += dv * dv
	}
	return mean, sse
}

// Trainer adapts Params to the ml.Trainer interface.
type Trainer struct {
	Params Params
}

// Train implements ml.Trainer.
func (t Trainer) Train(d *ml.Dataset, seed uint64) (ml.Model, error) {
	if d == nil {
		return nil, errors.New("rf: nil dataset")
	}
	return Train(d, t.Params, seed)
}

// Name implements ml.Trainer.
func (t Trainer) Name() string { return t.Params.String() }

// PredictWithVariance returns the forest mean together with the
// population variance of the individual tree predictions, computed in a
// single walk over the trees with no allocations. Per-tree variance is
// the ensemble-disagreement signal the active-learning scheduler ranks
// candidate configurations by (high variance = the trees were grown on
// bootstrap samples that disagree here; the point is informative).
func (f *Forest) PredictWithVariance(x []float64) (mean, variance float64) {
	n := float64(len(f.trees))
	var sum, sq float64
	for i := range f.trees {
		v := f.trees[i].predict(x)
		sum += v
		sq += v * v
	}
	mean = sum / n
	variance = sq/n - mean*mean
	if variance < 0 {
		variance = 0 // guard the two-accumulator form against rounding
	}
	return mean, variance
}

// PredictWithSpread returns the forest mean together with the standard
// deviation of the individual tree predictions — a cheap uncertainty
// estimate for design-space exploration (wide spread = the model is
// extrapolating; trust the point less).
func (f *Forest) PredictWithSpread(x []float64) (mean, std float64) {
	mean, variance := f.PredictWithVariance(x)
	return mean, math.Sqrt(variance)
}

// PermutationImportance measures each feature's contribution by the
// accuracy it costs to destroy it: the feature's column is cyclically
// shifted across the evaluation rows and the increase in mean relative
// error is recorded. Unlike the split-gain Importance it reflects what
// the trained model actually *uses* on the given data, making it robust
// to correlated features. Rows with zero targets are skipped.
func (f *Forest) PermutationImportance(X [][]float64, y []float64) []float64 {
	if len(X) == 0 || len(X) != len(y) {
		return nil
	}
	numF := len(X[0])
	base := f.mre(X, y, -1)
	out := make([]float64, numF)
	for feat := 0; feat < numF; feat++ {
		out[feat] = f.mre(X, y, feat) - base
		if out[feat] < 0 {
			out[feat] = 0
		}
	}
	return out
}

// mre evaluates mean relative error with feature perm (if >= 0)
// cyclically shifted by one row — a deterministic permutation that
// breaks the feature-target association without changing the feature's
// marginal distribution.
func (f *Forest) mre(X [][]float64, y []float64, perm int) float64 {
	n := len(X)
	var sum float64
	var count int
	row := make([]float64, len(X[0]))
	for i := 0; i < n; i++ {
		if y[i] == 0 {
			continue
		}
		x := X[i]
		if perm >= 0 {
			copy(row, x)
			row[perm] = X[(i+1)%n][perm]
			x = row
		}
		d := f.Predict(x) - y[i]
		if d < 0 {
			d = -d
		}
		ay := y[i]
		if ay < 0 {
			ay = -ay
		}
		sum += d / ay
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
