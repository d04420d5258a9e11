package rf

import (
	"encoding/json"
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
