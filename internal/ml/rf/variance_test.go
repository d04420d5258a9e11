package rf

import (
	"math"
	"testing"

	"napel/internal/ml"
	"napel/internal/xrand"
)

// fixtureForest builds a two-tree forest by hand through the JSON
// representation: both trees split feature 0 at 0.5, so every
// prediction is exactly computable on paper.
//
//	tree 0: x0 <= 0.5 -> 2, else 6
//	tree 1: x0 <= 0.5 -> 4, else 10
func fixtureForest(t *testing.T) *Forest {
	t.Helper()
	raw := `{
		"params": {},
		"importance": [0],
		"trees": [
			{"feature": [0, -1, -1], "thresh": [0.5, 0, 0], "left": [1, 0, 0], "right": [2, 0, 0], "value": [0, 2, 6]},
			{"feature": [0, -1, -1], "thresh": [0.5, 0, 0], "left": [1, 0, 0], "right": [2, 0, 0], "value": [0, 4, 10]}
		]
	}`
	f, err := readForest([]byte(raw), 1)
	if err != nil {
		t.Fatalf("read fixture forest: %v", err)
	}
	return f
}

func TestPredictWithVarianceFixture(t *testing.T) {
	f := fixtureForest(t)

	// x0 = 0: trees predict 2 and 4 -> mean 3, variance ((2-3)²+(4-3)²)/2 = 1.
	mean, variance := f.PredictWithVariance([]float64{0})
	if mean != 3 || variance != 1 {
		t.Fatalf("left leaves: mean=%g variance=%g, want 3, 1", mean, variance)
	}

	// x0 = 1: trees predict 6 and 10 -> mean 8, variance 4.
	mean, variance = f.PredictWithVariance([]float64{1})
	if mean != 8 || variance != 4 {
		t.Fatalf("right leaves: mean=%g variance=%g, want 8, 4", mean, variance)
	}

	// The mean must agree with Predict, and the spread with the
	// variance's square root, on both branches.
	for _, x := range [][]float64{{0}, {1}} {
		m1, v := f.PredictWithVariance(x)
		if got := f.Predict(x); got != m1 {
			t.Fatalf("Predict(%v)=%g disagrees with PredictWithVariance mean %g", x, got, m1)
		}
		m2, std := f.PredictWithSpread(x)
		if m2 != m1 || std != math.Sqrt(v) {
			t.Fatalf("PredictWithSpread(%v)=(%g,%g), want (%g,%g)", x, m2, std, m1, math.Sqrt(v))
		}
	}
}

func TestPredictWithVarianceAgreement(t *testing.T) {
	// On a trained forest the single-walk variance must equal the
	// two-pass definition over the individual tree predictions.
	rng := xrand.New(7)
	d := &ml.Dataset{Names: []string{"a", "b"}}
	for i := 0; i < 120; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		d.X = append(d.X, x)
		d.Y = append(d.Y, 3*x[0]+x[1]*x[1]+0.1*rng.NormFloat64())
	}
	f, err := Train(d, Params{Trees: 16, MinLeaf: 2}, 11)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	x := []float64{0.3, 0.7}
	mean, variance := f.PredictWithVariance(x)
	var sum float64
	preds := make([]float64, len(f.trees))
	for i := range f.trees {
		preds[i] = f.trees[i].predict(x)
		sum += preds[i]
	}
	wantMean := sum / float64(len(preds))
	var wantVar float64
	for _, p := range preds {
		dv := p - wantMean
		wantVar += dv * dv
	}
	wantVar /= float64(len(preds))
	if math.Abs(mean-wantMean) > 1e-12 || math.Abs(variance-wantVar) > 1e-12 {
		t.Fatalf("got (%g, %g), want (%g, %g)", mean, variance, wantMean, wantVar)
	}
}

func TestPredictWithVarianceNoAllocs(t *testing.T) {
	f := fixtureForest(t)
	x := []float64{0.25}
	allocs := testing.AllocsPerRun(100, func() {
		f.PredictWithVariance(x)
	})
	if allocs != 0 {
		t.Fatalf("PredictWithVariance allocates %v times per call, want 0", allocs)
	}
}
