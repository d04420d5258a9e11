package napel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
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
	Trees      []struct {
		Feature []int     `json:"feature"`
		Thresh  []float64 `json:"thresh"`
		Left    []int32   `json:"left"`
		Right   []int32   `json:"right"`
		Value   []float64 `json:"value"`
	} `json:"trees"`
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
// bytes. Forests are compared through their JSON form: float64s encode
// in shortest round-trip form (keeping -0) and nil slices as null, so
// equal bytes mean bit-identical forests.
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
		want, err := json.Marshal(m.ref.Forest)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("forests differ")
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
