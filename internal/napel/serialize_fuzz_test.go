package napel

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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
// decoded it before LoadPredictor read it in one pass, with a version 3
// file's node images read after it with encoding/binary; refLoad applies
// that decoder's checks plus the feature layout check. They are the
// differential reference FuzzLoadPredictor compares LoadPredictor with.
type refPredictor struct {
	Version   int               `json:"version"`
	Names     []string          `json:"feature_names"`
	Chosen    map[string]string `json:"chosen,omitempty"`
	TrainTime time.Duration     `json:"train_time_ns,omitempty"`
	IPC       refModel          `json:"ipc"`
	EPI       refModel          `json:"epi"`
}

type refModel struct {
	Lo     float64    `json:"log_lo"`
	Hi     float64    `json:"log_hi"`
	Forest *refForest `json:"forest"`
}

// refForest has the field order of every form of rf's forest: with
// Trees alone, marshaling its canonical form reproduces what a version 1
// file held, and with Nodes alone what a version 2 file held. A version
// 2 forest's Nodes, which encoding/json decodes from base64 itself, and
// the node images refLoad cuts from a version 3 file's tail along
// NodeCounts, are what expand turns into Trees.
type refForest struct {
	Params     rf.Params `json:"params"`
	Importance []float64 `json:"importance"`
	Trees      []refTree `json:"trees,omitempty"`
	Nodes      [][]byte  `json:"nodes,omitempty"`
	NodeCounts []int     `json:"node_counts,omitempty"`
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

// expand moves each node image of f into five node arrays, read as
// rf's AppendNodes writes a node: v as float64 bits, then feature and
// right as int32s, all little-endian, with a split's left child the next
// node. It rejects a forest holding both layouts, an image of partial
// nodes and a value no version 1 file can hold, NaN or ±Inf.
func (f *refForest) expand() error {
	if f.Nodes == nil {
		return nil
	}
	if f.Trees != nil {
		return fmt.Errorf("both trees and nodes")
	}
	for ti, im := range f.Nodes {
		if len(im)%16 != 0 {
			return fmt.Errorf("tree %d: image of %d bytes", ti, len(im))
		}
		var t refTree
		for ni := 0; ni < len(im)/16; ni++ {
			rec := im[16*ni:]
			v := math.Float64frombits(binary.LittleEndian.Uint64(rec))
			feat := int32(binary.LittleEndian.Uint32(rec[8:]))
			right := int32(binary.LittleEndian.Uint32(rec[12:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("tree %d node %d holds %v", ti, ni, v)
			}
			t.Feature = append(t.Feature, int(feat))
			if feat < 0 {
				t.Thresh, t.Left, t.Right, t.Value = append(t.Thresh, 0), append(t.Left, 0), append(t.Right, 0), append(t.Value, v)
			} else {
				t.Thresh, t.Left, t.Right, t.Value = append(t.Thresh, v), append(t.Left, int32(ni+1)), append(t.Right, right), append(t.Value, 0)
			}
		}
		f.Trees = append(f.Trees, t)
	}
	f.Nodes = nil
	return nil
}

// canonical returns a copy of f with the fields no walk reads in the
// form rf's AppendNodes writes them: a leaf's feature -1 and its thresh,
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

// images returns a copy of f with its trees as version 2 node images, as
// rf wrote them before version 3: the inverse of expand on a canonical
// forest.
func (f *refForest) images() *refForest {
	c := *f
	c.Trees, c.Nodes = nil, make([][]byte, len(f.Trees))
	for ti, t := range f.Trees {
		var im []byte
		for ni, feat := range t.Feature {
			v, right := t.Value[ni], int32(0)
			if feat >= 0 {
				v, right = t.Thresh[ni], t.Right[ni]
			} else {
				feat = -1
			}
			im = binary.LittleEndian.AppendUint64(im, math.Float64bits(v))
			im = binary.LittleEndian.AppendUint32(im, uint32(int32(feat)))
			im = binary.LittleEndian.AppendUint32(im, uint32(right))
		}
		c.Nodes[ti] = im
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
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&in); err != nil {
		return nil, err
	}
	if in.Version < 1 || in.Version > 3 {
		return nil, fmt.Errorf("version %d", in.Version)
	}
	if in.IPC.Forest == nil || in.EPI.Forest == nil {
		return nil, fmt.Errorf("missing a model")
	}
	if err := checkFeatureLayout(in.Names); err != nil {
		return nil, err
	}
	if err := refTail(&in, data[dec.InputOffset():]); err != nil {
		return nil, err
	}
	for _, f := range []*refForest{in.IPC.Forest, in.EPI.Forest} {
		if err := f.expand(); err != nil {
			return nil, err
		}
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

// refTail checks what follows in's JSON. A version 1 or 2 file may hold
// no node counts, and the reference ignores what follows its object.
// A version 3 file holds node counts and nothing else in each forest,
// and after its JSON one '\n' and the node images, exactly as many as the
// counts call for, which refTail cuts into the forests' Nodes.
func refTail(in *refPredictor, rest []byte) error {
	forests := []*refForest{in.IPC.Forest, in.EPI.Forest}
	if in.Version != 3 {
		for _, f := range forests {
			if f.NodeCounts != nil {
				return fmt.Errorf("node counts in version %d", in.Version)
			}
		}
		return nil
	}
	if len(rest) == 0 || rest[0] != '\n' {
		return fmt.Errorf("no newline after the header")
	}
	tail := rest[1:]
	for _, f := range forests {
		if f.Trees != nil || f.Nodes != nil || f.NodeCounts == nil {
			return fmt.Errorf("version 3 forest without node counts alone")
		}
		for ti, n := range f.NodeCounts {
			if n <= 0 || n > len(tail)/16 {
				return fmt.Errorf("tree %d: %d nodes, with %d bytes left", ti, n, len(tail))
			}
			f.Nodes = append(f.Nodes, tail[:16*n])
			tail = tail[16*n:]
		}
		f.NodeCounts = nil
	}
	if len(tail) != 0 {
		return fmt.Errorf("%d bytes after the last node", len(tail))
	}
	return nil
}

// sameAsRef reports how p differs from the reference decode of the same
// bytes. Forests are compared in one form, the canonical five arrays: a
// loaded forest's node images are expanded as the reference expands a
// file's, and both are marshaled, so that float64s encode in shortest
// round-trip form (keeping -0) and nil slices as null, and equal bytes
// mean bit-identical forests. Each forest must also predict what a walk
// over the reference's arrays predicts, bit for bit.
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
		got, err := canonicalJSON(inner)
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

// canonicalJSON marshals a loaded forest in the reference's canonical
// five-array form, read from what rf writes of it: its header and its
// node images.
func canonicalJSON(forest ml.Model) ([]byte, error) {
	f := forest.(*rf.Forest)
	h := f.Header()
	nodes, err := f.AppendNodes(nil)
	if err != nil {
		return nil, err
	}
	ref := refForest{Params: h.Params, Importance: h.Importance}
	for _, n := range h.NodeCounts {
		ref.Nodes = append(ref.Nodes, nodes[:16*n])
		nodes = nodes[16*n:]
	}
	if err := ref.expand(); err != nil {
		return nil, err
	}
	return json.Marshal(ref.canonical())
}

// savedBytesV1 writes p in format version 1, five node arrays per tree,
// byte for byte as Save wrote it before node images: the reference
// decode of p's version 3 bytes, in canonical form, marshaled as Save
// encoded it.
func savedBytesV1(tb testing.TB, p *Predictor) []byte {
	tb.Helper()
	return savedOld(tb, p, 1, (*refForest).canonical)
}

// savedBytesV2 writes p in format version 2, one base64 node image per
// tree, as Save wrote it before version 3.
func savedBytesV2(tb testing.TB, p *Predictor) []byte {
	tb.Helper()
	return savedOld(tb, p, 2, func(f *refForest) *refForest { return f.canonical().images() })
}

func savedOld(tb testing.TB, p *Predictor, version int, form func(*refForest) *refForest) []byte {
	tb.Helper()
	ref, err := refLoad(savedBytes(tb, p))
	if err != nil {
		tb.Fatal(err)
	}
	ref.Version, ref.TrainTime = version, p.TrainTime
	ref.IPC.Forest, ref.EPI.Forest = form(ref.IPC.Forest), form(ref.EPI.Forest)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ref); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
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

// TestLoadPredictorLayoutSeeds pins the verdicts of the corpus seeds
// aimed at version 1's node arrays. A split whose left child is not the
// next node is rejected, though the reference accepts it. A feature is
// checked before it narrows to a node's int32: 2³²+3 at a split is
// rejected, not read as feature 3, and −2³¹−1 at a leaf loads as the
// reference decodes it. Node arrays listed value first load to the
// predictor the reference decodes and Save's key order loads to.
func TestLoadPredictorLayoutSeeds(t *testing.T) {
	for name, want := range map[string]string{
		"left-not-next":            "rf: tree 0 node 0 has a left child that is not the next node",
		"feature-4294967299":       "rf: tree 0 node 0 splits on feature 4294967299 of 405",
		"feature-minus-2147483649": "",
	} {
		data := corpusSeed(t, name)
		ref, err := refLoad(data)
		if err != nil {
			t.Fatalf("reference rejects %s: %v", name, err)
		}
		p, err := LoadPredictor(data)
		if want != "" {
			if err == nil || !strings.HasSuffix(err.Error(), want) {
				t.Errorf("%s: error %v, want one ending %q", name, err, want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sameAsRef(p, ref); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
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

// TestLoadPredictorTreeSeeds pins the verdicts of the two corpus seeds
// aimed at where one tree ends and which tree an error names: an
// unknown key inside a tree whose name holds an escaped quote and
// closing brackets loads as the reference decodes it, and of two
// defective trees, a malformed number in IPC tree 2 and an unbalanced
// bracket in tree 5, tree 2 is reported.
func TestLoadPredictorTreeSeeds(t *testing.T) {
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

// TestLoadPredictorImageSeeds pins the verdicts of the corpus seeds
// aimed at node images, in version 2's base64 strings and in version
// 3's tail: each defect fails with its own error, and a valid model, or
// a version 2 image spelled with escapes, which both decoders unescape
// and whose newlines base64 skips, loads as the reference decodes it.
func TestLoadPredictorImageSeeds(t *testing.T) {
	header := bytes.IndexByte(corpusSeed(t, "v3-model"), '\n')
	for name, want := range map[string]string{
		"v3-model":            "",
		"v3-short-tail":       "rf: the node counts call for more than the 511 bytes of nodes that follow",
		"v3-byte-past-tail":   "rf: 513 bytes of nodes follow, want 512 for 32 nodes",
		"v3-no-newline":       fmt.Sprintf("offset %d: want a newline after the version 3 header", header),
		"v3-crlf":             fmt.Sprintf("offset %d: want a newline after the version 3 header", header),
		"v3-count-0":          "rf: tree 0 has a node count of 0",
		"v3-count-minus-1":    "rf: tree 0 has a node count of -1",
		"v3-count-2147483647": "rf: the node counts call for more than the 512 bytes of nodes that follow",
		"v3-nan":              "rf: forest 0 tree 0 node 1 holds NaN",
		"v3-inf":              "rf: forest 0 tree 0 node 0 holds +Inf",
		"v3-minus-inf":        "rf: forest 0 tree 0 node 1 holds -Inf",
		"v3-feature-405":      "rf: forest 0 tree 0 node 0 splits on feature 405 of 405",
		"v3-right-not-after":  "rf: forest 0 tree 0 node 0 has an out-of-range right child",
		"v3-right-past-tree":  "rf: forest 0 tree 0 node 0 has an out-of-range right child",
		"v3-counts-and-nodes": `rf: forest holds both "nodes" and "node_counts"`,
		"v2-with-tail":        "unexpected data after the top-level value",
		"v2-model":            "",
		"v2-escaped-base64":   "",
		"v2-bad-base64":       "rf: tree 0: node image: illegal base64 data at input byte 6",
		"v2-partial-node":     "rf: tree 0: node image of 77 bytes is not whole 16-byte nodes",
		"v2-empty-image":      "rf: tree 0 is empty",
		"v2-feature-405":      "rf: tree 0 node 0 splits on feature 405 of 405",
		"v2-right-not-after":  "rf: tree 0 node 0 has an out-of-range right child",
		"v2-right-past-tree":  "rf: tree 0 node 0 has an out-of-range right child",
		"v2-nan":              "rf: tree 0 node 4 holds NaN",
		"v2-inf":              "rf: tree 0 node 4 holds -Inf",
		"v2-trees-and-nodes":  `rf: forest holds both "trees" and "nodes"`,
	} {
		data := corpusSeed(t, name)
		p, err := LoadPredictor(data)
		if want != "" {
			if err == nil || !strings.HasSuffix(err.Error(), want) {
				t.Errorf("%s: error %v, want one ending %q", name, err, want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := refLoad(data)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if err := sameAsRef(p, ref); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestVersion1SeedsResaveAsVersion2: every version 1 and version 2
// corpus seed that loads saves as version 3, with node counts and no
// node arrays or images in its header, and the re-saved model predicts
// bit for bit what the old file's reference walk predicts, on
// probeRows.
func TestVersion1SeedsResaveAsVersion2(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzLoadPredictor"))
	if err != nil {
		t.Fatal(err)
	}
	resaved := map[int]int{}
	for _, e := range entries {
		data := corpusSeed(t, e.Name())
		p, err := LoadPredictor(data)
		if err != nil {
			continue
		}
		ref, err := refLoad(data)
		if err != nil {
			t.Fatalf("%s: reference: %v", e.Name(), err)
		}
		if ref.Version == 3 {
			continue
		}
		v3 := savedBytes(t, p)
		header, _, _ := bytes.Cut(v3, []byte("\n"))
		if !bytes.HasPrefix(header, []byte(`{"version":3,`)) || bytes.Count(header, []byte(`"node_counts":[`)) != 2 ||
			bytes.Contains(header, []byte(`"trees"`)) || bytes.Contains(header, []byte(`"nodes"`)) {
			t.Fatalf("%s: re-saved as %.60q..., not version 3 with node counts", e.Name(), v3)
		}
		again, err := LoadPredictor(v3)
		if err != nil {
			t.Fatalf("%s: re-saved model: %v", e.Name(), err)
		}
		for _, m := range []struct {
			model ml.Model
			ref   *refForest
		}{{again.IPC, ref.IPC.Forest}, {again.EPI, ref.EPI.Forest}} {
			inner, _, _, _ := ml.UnwrapLogModel(m.model)
			if err := samePredictions(inner, m.ref, probeRows(m.ref, 200, 3)); err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
		}
		resaved[ref.Version]++
	}
	if resaved[1] < 5 || resaved[2] < 2 {
		t.Fatalf("only %d version 1 and %d version 2 seeds load", resaved[1], resaved[2])
	}
}

// TestLoadedForestMatchesReferenceWalk is the differential test of the
// 16-byte node layout on a model shaped like a trained NAPEL predictor:
// the trained forests and the LoadPredictor copies of their version 1, 2
// and 3 files predict, bit for bit, what a walk over the five arrays the
// reference decodes from each file predicts.
func TestLoadedForestMatchesReferenceWalk(t *testing.T) {
	p := synthPredictor(t, 80, 370)
	for _, data := range [][]byte{savedBytesV1(t, p), savedBytesV2(t, p), savedBytes(t, p)} {
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
					t.Fatalf("version %d, %s: %v", ref.Version, m.name, err)
				}
			}
		}
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestLoadPredictorAllocs pins the cost of a load. A version 1 or 2 file
// costs one allocation per tree (its node arena) plus a constant, so a
// return to reflective decoding, which allocates per node array and per
// value, fails here. A version 3 file costs a constant, one node arena
// per forest whatever its trees. Every load reads on the caller's
// goroutine alone, so each limit holds at every GOMAXPROCS: the count is
// taken at 1 with testing.AllocsPerRun, and at 2 and 4 with
// runtime.ReadMemStats.
func TestLoadPredictorAllocs(t *testing.T) {
	const treesPerTarget = 48
	p := synthPredictor(t, treesPerTarget, 40)
	for _, v := range []struct {
		name  string
		data  []byte
		limit float64
	}{
		{"v1", savedBytesV1(t, p), 2*treesPerTarget + 36}, // reads 128
		{"v2", savedBytesV2(t, p), 2*treesPerTarget + 34}, // reads 126
		{"v3", savedBytes(t, p), 40},                      // reads 20
	} {
		load := func() {
			if _, err := LoadPredictor(v.data); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(5, load); allocs > v.limit {
			t.Fatalf("%s: LoadPredictor allocates %.0f/op for %d trees, want <= %.0f", v.name, allocs, 2*treesPerTarget, v.limit)
		}
		if raceEnabled {
			continue // the race detector changes allocation counts
		}
		for _, procs := range []int{2, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				load()
				const runs = 20
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range runs {
					load()
				}
				runtime.ReadMemStats(&after)
				if allocs := float64(after.Mallocs-before.Mallocs) / runs; allocs > v.limit {
					t.Errorf("%s: at GOMAXPROCS %d LoadPredictor allocates %.1f/op for %d trees, want <= %.0f", v.name, procs, allocs, 2*treesPerTarget, v.limit)
				}
			}()
		}
	}
}

// BenchmarkLoadPredictor loads a model shaped like a trained NAPEL
// predictor, 80 trees per target of roughly 470 nodes each, in format
// version 1 (five node arrays per tree), version 2 (base64 node images)
// and version 3 (raw node images after the JSON).
func BenchmarkLoadPredictor(b *testing.B) {
	p := synthPredictor(b, 80, 370)
	for _, v := range []struct {
		name string
		data []byte
	}{{"v1", savedBytesV1(b, p)}, {"v2", savedBytesV2(b, p)}, {"v3", savedBytes(b, p)}} {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(len(v.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := LoadPredictor(v.data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
