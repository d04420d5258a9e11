package rf

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"napel/internal/jsonread"
	"napel/internal/xrand"
)

func readForest(data []byte, numFeatures int) (*Forest, error) {
	r := jsonread.New(data)
	f, err := ReadForest(r, numFeatures)
	if err == nil {
		err = r.End()
	}
	return f, err
}

func TestForestJSONRoundTrip(t *testing.T) {
	d := synth(150, func(x []float64) float64 { return x[0]*x[1] + x[2] }, 21)
	f, err := Train(d, Params{Trees: 12}, 22)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := readForest(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(23)
	for i := 0; i < 100; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		if f.Predict(x) != g.Predict(x) {
			t.Fatalf("round trip changed prediction at %v", x)
		}
	}
	gi, fi := g.Importance(), f.Importance()
	for i := range fi {
		if fi[i] != gi[i] {
			t.Fatal("importance lost in round trip")
		}
	}
	if g.params != f.params {
		t.Fatalf("params %+v, want %+v", g.params, f.params)
	}
	again, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("marshal -> read -> marshal changed the bytes")
	}
}

func TestForestUnmarshalRejectsMalformed(t *testing.T) {
	cases := []string{
		`{}`, // no trees
		`{"trees":[{"feature":[0],"thresh":[1],"left":[5],"right":[0],"value":[0]}]}`,                       // child out of range
		`{"trees":[{"feature":[0,-1],"thresh":[1,0],"left":[0,0],"right":[1,0],"value":[0,1]}]}`,            // child loops to its parent
		`{"trees":[{"feature":[1,-1,-1],"thresh":[1,0,0],"left":[1,0,0],"right":[2,0,0],"value":[0,1,2]}]}`, // feature out of range
		`{"trees":[{"feature":[0,-1],"thresh":[1],"left":[1,0],"right":[1,0],"value":[0,1]}]}`,              // ragged arrays
		`{"trees":[{"feature":[],"thresh":[],"left":[],"right":[],"value":[]}]}`,                            // empty tree
		`{"trees":[{"feature":[-1],"thresh":[1],"left":[0],"right":[0]}]}`,                                  // missing array
		`{"trees":[{"feature":[-1],"thresh":[1],"left":[0],"right":[0],"value":[null]}]}`,                   // null number
		`{"trees":[{"feature":[0],"thresh":[1],"left":[2147483648],"right":[0],"value":[0]}]}`,              // child overflows int32
		`{"trees":[{"feature":[-1],"feature":[-1],"thresh":[1],"left":[0],"right":[0],"value":[0]}]}`,       // duplicate key
		`{"trees":[{"feature":[-1],"Feature":[-1],"thresh":[1],"left":[0],"right":[0],"value":[0]}]}`,       // duplicate under case folding
		`{"trees":null}`,
		`{"trees":[{"feature":[0,-1,-1],"thresh":[1,0,0],"left":[2,0,0],"right":[2,0,0],"value":[0,1,2]}]}`, // left child not the next node
		`{"trees":[{"left":[2,0,0],"feature":[0,-1,-1],"thresh":[1,0,0],"right":[2,0,0],"value":[0,1,2]}]}`, // the same, left read first
		`{"trees":[{"feature":[0,-1,-1],"thresh":[1,0,0],"left":[1,0,0],"right":[0,0,0],"value":[0,1,2]}]}`, // right child before its parent
	}
	for i, c := range cases {
		if _, err := readForest([]byte(c), 1); err == nil {
			t.Errorf("malformed case %d accepted: %s", i, c)
		}
	}
	// Keys match case-insensitively and unknown keys are skipped, as
	// encoding/json does for struct fields.
	ok := `{"PARAMS":{"trees":1},"extra":[{"a":null}],"trees":[{"Feature":[-1],"thresh":[0],"left":[0],"right":[0],"value":[2.5]}]}`
	f, err := readForest([]byte(ok), 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.params.Trees != 1 || f.Predict([]float64{0}) != 2.5 {
		t.Fatalf("decoded %+v", f)
	}
}

// TestForestReadArraysInAnyOrder: the node arrays may come in any key
// order; ones read before "feature" are placed once it is known, and
// fields no walk reads come back in MarshalJSON's canonical form.
func TestForestReadArraysInAnyOrder(t *testing.T) {
	const saveOrder = `{"params":{"Trees":0,"MaxDepth":0,"MinLeaf":0,"MTry":0,"SampleFrac":0},"importance":[1],` +
		`"trees":[{"feature":[0,-1,-1],"thresh":[0.5,0,0],"left":[1,0,0],"right":[2,0,0],"value":[0,1,2]}]}`
	for _, in := range []string{
		`{"trees":[{"value":[9,1,2],"right":[2,0,0],"left":[1,0,0],"thresh":[0.5,0,0],"feature":[0,-1,-1]}],"importance":[1]}`,
		`{"trees":[{"thresh":[0.5,7,7],"feature":[0,-3,-1],"value":[9,1,2],"left":[1,5,5],"right":[2,5,5]}],"importance":[1]}`,
	} {
		f, err := readForest([]byte(in), 1)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if f.Predict([]float64{0.5}) != 1 || f.Predict([]float64{0.75}) != 2 {
			t.Fatalf("%s: predicts %g, %g, want 1, 2", in, f.Predict([]float64{0.5}), f.Predict([]float64{0.75}))
		}
		out, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != saveOrder {
			t.Fatalf("%s: marshals to\n%s, want\n%s", in, out, saveOrder)
		}
	}
}

// TestNodeIs16Bytes pins the node layout the resident forest's size
// rests on: a threshold or leaf value, a feature and a right link.
func TestNodeIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 16 {
		t.Fatalf("node is %d bytes, want 16", got)
	}
}

// readForestSerial reads the trees of a forest in MarshalJSON form one
// after another in place, skipping every other field: the serial read
// whose errors ReadForest must report.
func readForestSerial(data []byte, numFeatures int) error {
	r := jsonread.New(data)
	err := r.Fields(forestFields, func(field string) error {
		if field != "trees" {
			return r.Skip()
		}
		var s treeScratch
		ti := 0
		return r.Array(func() error {
			_, err := readTree(r, ti, numFeatures, &s)
			ti++
			return err
		})
	})
	if err == nil {
		err = r.End()
	}
	return err
}

// TestForestErrorIsSerialReadsFirst pins the error contract of reading
// trees in parallel. With several trees defective, ReadForest fails with
// the error a serial read stops at, the lowest-index tree's, at the same
// absolute offset; a syntax error also names its tree. Nesting inside a
// tree counts from the document's top, as in a serial read.
func TestForestErrorIsSerialReadsFirst(t *testing.T) {
	d := synth(150, func(x []float64) float64 { return x[0]*x[1] + x[2] }, 21)
	f, err := Train(d, Params{Trees: 8}, 22)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	deep := func(depth int) string {
		return `"deep":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + ","
	}
	// A defect is text put into a tree right after a prefix of it; a
	// serial read of the tree then fails at offset errAt of the text,
	// or with an error that is not a syntax error if errAt is -1.
	type defect struct {
		after, text string
		errAt       int
	}
	number := defect{`{"feature":[`, "-x,", 0}
	bracket := defect{`{"feature":[`, "[", 0}
	ragged := defect{`{"feature":[`, "0,", -1}
	// Forest, trees and tree make depth 3, so 9 997 more is the limit.
	tooDeep := defect{"{", deep(maxDepthInTree + 1), len(`"deep":`) + maxDepthInTree + 1}
	// put returns data with d in tree ti, and the offset of d's text.
	put := func(data []byte, ti int, d defect) ([]byte, int) {
		at := -1
		for range ti + 1 {
			at += 1 + bytes.Index(data[at+1:], []byte(`{"feature"`))
		}
		at += len(d.after)
		return append(append(append([]byte(nil), data[:at]...), d.text...), data[at:]...), at
	}
	for _, c := range []struct {
		name         string
		first, later int // the defective trees, later -1 for none
		firstBad     defect
		laterBad     defect
	}{
		{"malformed number, then unbalanced bracket", 2, 5, number, bracket},
		{"unbalanced bracket, then malformed number", 2, 5, bracket, number},
		{"ragged node arrays, then malformed number", 2, 5, ragged, number},
		{"nesting past the limit, then malformed number", 1, 6, tooDeep, number},
		{"only a late tree", 5, -1, number, defect{}},
	} {
		data := clean
		if c.later >= 0 {
			data, _ = put(data, c.later, c.laterBad)
		}
		data, at := put(data, c.first, c.firstBad)
		want := readForestSerial(data, 3)
		var syntax *jsonread.SyntaxError
		isSyntax := errors.As(want, &syntax)
		switch {
		case want == nil:
			t.Fatalf("%s: the serial read accepted the forest", c.name)
		case isSyntax != (c.firstBad.errAt >= 0) || isSyntax && syntax.Offset != at+c.firstBad.errAt:
			t.Fatalf("%s: serial read fails with %v, not at offset %d of tree %d", c.name, want, at+c.firstBad.errAt, c.first)
		case !isSyntax && !strings.Contains(want.Error(), fmt.Sprintf("tree %d ", c.first)):
			t.Fatalf("%s: serial read fails with %v, not on tree %d", c.name, want, c.first)
		}
		wantMsg := want.Error()
		if isSyntax {
			wantMsg = fmt.Sprintf("rf: tree %d: %v", c.first, want)
		}
		if _, got := readForest(data, 3); got == nil || got.Error() != wantMsg {
			t.Errorf("%s: ReadForest fails with %v, want %s", c.name, got, wantMsg)
		}
	}
	atLimit, _ := put(clean, 1, defect{"{", deep(maxDepthInTree), 0})
	if _, err := readForest(atLimit, 3); err != nil {
		t.Fatalf("nesting at the limit inside a tree: %v", err)
	}
}

// maxDepthInTree is how deep a value inside a tree of a top-level forest
// may nest: encoding/json's limit of 10 000 less the forest object, the
// trees array and the tree object.
const maxDepthInTree = 10000 - 3
