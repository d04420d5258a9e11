package napel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"napel/internal/ml"
	"napel/internal/ml/rf"
	"napel/internal/xrand"
)

// synthPredictor trains log-target forests of the given size on rows of
// random data over this build's feature layout: a deterministic stand-in
// for a trained model that takes milliseconds instead of a simulation
// campaign.
func synthPredictor(tb testing.TB, trees, rows int) *Predictor {
	tb.Helper()
	names := append([]string(nil), featureLayout()...)
	rng := xrand.New(1)
	d := &ml.Dataset{Names: names}
	for i := 0; i < rows; i++ {
		x := make([]float64, len(names))
		for j := range x {
			x[j] = rng.Float64()
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, 1+x[0]+2*x[1]*x[2])
	}
	tr := ml.LogTrainer{Inner: rf.Trainer{Params: rf.Params{Trees: trees, MTry: 8}}}
	p := &Predictor{Names: names, TrainTime: 1234567 * time.Nanosecond, Chosen: map[Target]string{}}
	for _, t := range []Target{TargetIPC, TargetEPI} {
		m, err := tr.Train(d, uint64(t)+1)
		if err != nil {
			tb.Fatal(err)
		}
		if t == TargetIPC {
			p.IPC = m
		} else {
			p.EPI = m
		}
		p.Chosen[t] = tr.Name()
	}
	return p
}

func savedBytes(tb testing.TB, p *Predictor) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// refPredictor and refForest are the model file as encoding/json
// decoded it before LoadPredictor read it in one pass; refLoad applies
// that decoder's checks plus the feature layout check. They are the
// differential reference FuzzLoadPredictor compares LoadPredictor with.
type refPredictor struct {
	Version   int               `json:"version"`
	Names     []string          `json:"feature_names"`
	Chosen    map[string]string `json:"chosen,omitempty"`
	TrainTime time.Duration     `json:"train_time_ns"`
	IPC       refModel          `json:"ipc"`
	EPI       refModel          `json:"epi"`
}

type refModel struct {
	Lo     float64    `json:"log_lo"`
	Hi     float64    `json:"log_hi"`
	Forest *refForest `json:"forest"`
}

// refForest has the field order of rf's MarshalJSON form, so marshaling
// it reproduces what a Forest with the same contents marshals to.
type refForest struct {
	Params     rf.Params `json:"params"`
	Importance []float64 `json:"importance"`
	Trees      []refTree `json:"trees"`
}

type refTree struct {
	Feature []int     `json:"feature"`
	Thresh  []float64 `json:"thresh"`
	Left    []int32   `json:"left"`
	Right   []int32   `json:"right"`
	Value   []float64 `json:"value"`
}

// predict walks the five arrays as the forest walked them when each
// node kept all five fields: the mean of the tree predictions, summed
// in tree order.
func (f *refForest) predict(x []float64) float64 {
	s := 0.0
	for _, t := range f.Trees {
		i := int32(0)
		for t.Feature[i] >= 0 {
			if x[t.Feature[i]] <= t.Thresh[i] {
				i = t.Left[i]
			} else {
				i = t.Right[i]
			}
		}
		s += t.Value[i]
	}
	return s / float64(len(f.Trees))
}

// canonical returns a copy of f with the fields no walk reads in the
// form rf's MarshalJSON writes them: a leaf's feature -1 and its thresh,
// left and right 0, a split's value 0.
func (f *refForest) canonical() *refForest {
	c := *f
	c.Trees = make([]refTree, len(f.Trees))
	for ti, t := range f.Trees {
		ct := refTree{
			Feature: slices.Clone(t.Feature),
			Thresh:  slices.Clone(t.Thresh),
			Left:    slices.Clone(t.Left),
			Right:   slices.Clone(t.Right),
			Value:   slices.Clone(t.Value),
		}
		for ni, feat := range t.Feature {
			if feat < 0 {
				ct.Feature[ni], ct.Thresh[ni], ct.Left[ni], ct.Right[ni] = -1, 0, 0, 0
			} else {
				ct.Value[ni] = 0
			}
		}
		c.Trees[ti] = ct
	}
	return &c
}

// probeRows returns n rows over the feature layout for comparing walks.
// Each draws uniform values, then sets a few features to thresholds
// the reference splits them at, so the walks also meet x == threshold.
func probeRows(f *refForest, n int, seed uint64) [][]float64 {
	rng := xrand.New(seed)
	rows := make([][]float64, n)
	for r := range rows {
		x := make([]float64, len(featureLayout()))
		for j := range x {
			x[j] = rng.Float64()
		}
		for k := 0; k < 8; k++ {
			t := f.Trees[rng.Intn(len(f.Trees))]
			if ni := rng.Intn(len(t.Feature)); t.Feature[ni] >= 0 {
				x[t.Feature[ni]] = t.Thresh[ni]
			}
		}
		rows[r] = x
	}
	return rows
}

// samePredictions reports the first row on which forest and the
// reference walk over ref's arrays disagree in any bit.
func samePredictions(forest ml.Model, ref *refForest, rows [][]float64) error {
	for r, x := range rows {
		got, want := forest.Predict(x), ref.predict(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("row %d: forest predicts %v, reference walk %v", r, got, want)
		}
	}
	return nil
}

func refLoad(data []byte) (*refPredictor, error) {
	var in refPredictor
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil {
		return nil, err
	}
	if in.Version != savedVersion {
		return nil, fmt.Errorf("version %d", in.Version)
	}
	if in.IPC.Forest == nil || in.EPI.Forest == nil {
		return nil, fmt.Errorf("missing a model")
	}
	if err := checkFeatureLayout(in.Names); err != nil {
		return nil, err
	}
	for _, f := range []*refForest{in.IPC.Forest, in.EPI.Forest} {
		if len(f.Trees) == 0 {
			return nil, fmt.Errorf("no trees")
		}
		for ti, tj := range f.Trees {
			n := len(tj.Feature)
			if len(tj.Thresh) != n || len(tj.Left) != n || len(tj.Right) != n || len(tj.Value) != n {
				return nil, fmt.Errorf("tree %d has inconsistent node arrays", ti)
			}
			if n == 0 {
				return nil, fmt.Errorf("tree %d is empty", ti)
			}
			for ni := range tj.Feature {
				l, r := tj.Left[ni], tj.Right[ni]
				if tj.Feature[ni] >= 0 && (l < 0 || int(l) >= n || r < 0 || int(r) >= n) {
					return nil, fmt.Errorf("tree %d node %d has out-of-range children", ti, ni)
				}
			}
		}
	}
	return &in, nil
}

// sameAsRef reports how p differs from the reference decode of the same
// bytes. Forests are compared through their JSON form after the
// reference's unread fields are made canonical: float64s encode in
// shortest round-trip form (keeping -0) and nil slices as null, so equal
// bytes mean bit-identical forests. Each forest must also predict what
// a walk over the reference's arrays predicts, bit for bit.
func sameAsRef(p *Predictor, ref *refPredictor) error {
	if !reflect.DeepEqual(p.Names, ref.Names) {
		return fmt.Errorf("names differ")
	}
	if p.TrainTime != ref.TrainTime {
		return fmt.Errorf("train time %v, reference %v", p.TrainTime, ref.TrainTime)
	}
	wantChosen := map[Target]string{}
	for _, t := range []Target{TargetIPC, TargetEPI} {
		if name, ok := ref.Chosen[t.String()]; ok {
			wantChosen[t] = name
		}
	}
	if !reflect.DeepEqual(p.Chosen, wantChosen) {
		return fmt.Errorf("chosen %v, reference %v", p.Chosen, wantChosen)
	}
	for _, m := range []struct {
		model ml.Model
		ref   refModel
	}{{p.IPC, ref.IPC}, {p.EPI, ref.EPI}} {
		inner, lo, hi, ok := ml.UnwrapLogModel(m.model)
		if !ok {
			return fmt.Errorf("model is not log-target")
		}
		if math.Float64bits(lo) != math.Float64bits(m.ref.Lo) || math.Float64bits(hi) != math.Float64bits(m.ref.Hi) {
			return fmt.Errorf("clamp [%g, %g], reference [%g, %g]", lo, hi, m.ref.Lo, m.ref.Hi)
		}
		got, err := json.Marshal(inner)
		if err != nil {
			return err
		}
		want, err := json.Marshal(m.ref.Forest.canonical())
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("forests differ")
		}
		if err := samePredictions(inner, m.ref.Forest, probeRows(m.ref.Forest, 4, 1)); err != nil {
			return err
		}
	}
	return nil
}

// FuzzLoadPredictor checks LoadPredictor against the encoding/json
// reference on arbitrary bytes: it never panics, it accepts only what
// the reference accepts and then decodes bit-identically, and whatever
// it accepts saves to bytes both decoders accept and that load and save
// back unchanged.
func FuzzLoadPredictor(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPredictor(data)
		if err != nil {
			return
		}
		ref, refErr := refLoad(data)
		if refErr != nil {
			t.Fatalf("LoadPredictor accepted what the reference rejects (%v)", refErr)
		}
		if err := sameAsRef(p, ref); err != nil {
			t.Fatalf("LoadPredictor decoded differently from the reference: %v", err)
		}
		saved := savedBytes(t, p)
		again, err := LoadPredictor(saved)
		if err != nil {
			t.Fatalf("LoadPredictor rejected a Save output: %v", err)
		}
		if _, err := refLoad(saved); err != nil {
			t.Fatalf("reference rejected a Save output: %v", err)
		}
		if !bytes.Equal(savedBytes(t, again), saved) {
			t.Fatal("Save -> LoadPredictor -> Save changed the bytes")
		}
	})
}

// corpusSeed returns the bytes of one FuzzLoadPredictor corpus file.
func corpusSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoadPredictor", name))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(string(raw), "[]byte(")
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
	if err != nil {
		t.Fatalf("corpus file %s: %v", name, err)
	}
	return []byte(data)
}

// TestLoadPredictorLayoutSeeds pins the verdicts of two corpus seeds: a
// split whose left child is not the next node is rejected, though the
// reference accepts it, and node arrays listed value first load to the
// predictor the reference decodes and Save's key order loads to.
func TestLoadPredictorLayoutSeeds(t *testing.T) {
	bad := corpusSeed(t, "left-not-next")
	if _, err := refLoad(bad); err != nil {
		t.Fatalf("reference rejects left-not-next: %v", err)
	}
	if _, err := LoadPredictor(bad); err == nil || !strings.Contains(err.Error(), "not the next node") {
		t.Fatalf("left-not-next: error %v, want a left-child error", err)
	}

	reordered := corpusSeed(t, "arrays-reordered")
	p, err := LoadPredictor(reordered)
	if err != nil {
		t.Fatalf("arrays-reordered: %v", err)
	}
	ref, err := refLoad(reordered)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAsRef(p, ref); err != nil {
		t.Fatalf("arrays-reordered: %v", err)
	}
	want, err := LoadPredictor(corpusSeed(t, "model"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(savedBytes(t, p), savedBytes(t, want)) {
		t.Fatal("arrays-reordered saves differently from the same model in Save's key order")
	}
}

// TestLoadPredictorTreeSpanSeeds pins the verdicts of the two corpus
// seeds aimed at reading trees in parallel: an unknown key inside a tree
// whose name holds an escaped quote and closing brackets loads as the
// reference decodes it, and of two defective trees, a malformed number
// in IPC tree 2 and an unbalanced bracket in tree 5, tree 2 is reported.
func TestLoadPredictorTreeSpanSeeds(t *testing.T) {
	odd := corpusSeed(t, "tree-key-escaped-brackets")
	p, err := LoadPredictor(odd)
	if err != nil {
		t.Fatalf("tree-key-escaped-brackets: %v", err)
	}
	ref, err := refLoad(odd)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAsRef(p, ref); err != nil {
		t.Fatalf("tree-key-escaped-brackets: %v", err)
	}

	bad := corpusSeed(t, "defects-in-trees-2-and-5")
	_, err = LoadPredictor(bad)
	want := fmt.Sprintf("rf: tree 2: offset %d: malformed number", bytes.Index(bad, []byte("1.e5"))+len("1."))
	if err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("defects-in-trees-2-and-5: error %v, want one ending %q", err, want)
	}
}

// TestLoadedForestMatchesReferenceWalk is the differential test of the
// 16-byte node layout on a model shaped like a trained NAPEL predictor:
// the trained forests and their Save→LoadPredictor copies predict, bit
// for bit, what a walk over the saved five arrays predicts.
func TestLoadedForestMatchesReferenceWalk(t *testing.T) {
	p := synthPredictor(t, 80, 370)
	data := savedBytes(t, p)
	loaded, err := LoadPredictor(data)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refLoad(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name          string
		trained, load ml.Model
		ref           *refForest
	}{{"ipc", p.IPC, loaded.IPC, ref.IPC.Forest}, {"epi", p.EPI, loaded.EPI, ref.EPI.Forest}} {
		rows := probeRows(m.ref, 1000, 2)
		for _, model := range []ml.Model{m.trained, m.load} {
			inner, _, _, _ := ml.UnwrapLogModel(model)
			if err := samePredictions(inner, m.ref, rows); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
		}
	}
}

// TestLoadPredictorAllocs pins the cost of a load to one allocation per
// tree (its node arena) plus a constant, so a return to reflective
// decoding, which allocates per node array and per value, fails here.
func TestLoadPredictorAllocs(t *testing.T) {
	const treesPerTarget = 12
	data := savedBytes(t, synthPredictor(t, treesPerTarget, 40))
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := LoadPredictor(data); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(2*treesPerTarget + 40); allocs > limit {
		t.Fatalf("LoadPredictor allocates %.0f/op for %d trees, want <= %.0f", allocs, 2*treesPerTarget, limit)
	}
}

// BenchmarkLoadPredictor loads a model shaped like a trained NAPEL
// predictor: 80 trees per target of roughly 470 nodes each.
func BenchmarkLoadPredictor(b *testing.B) {
	data := savedBytes(b, synthPredictor(b, 80, 370))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadPredictor(data); err != nil {
			b.Fatal(err)
		}
	}
}
