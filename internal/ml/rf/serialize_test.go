package rf

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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

// v1JSON writes f in format version 1, five node arrays per tree, as
// MarshalJSON wrote it before node images.
func v1JSON(t *testing.T, f *Forest) []byte {
	t.Helper()
	type treeV1 struct {
		Feature []int     `json:"feature"`
		Thresh  []float64 `json:"thresh"`
		Left    []int32   `json:"left"`
		Right   []int32   `json:"right"`
		Value   []float64 `json:"value"`
	}
	out := struct {
		Params     Params    `json:"params"`
		Importance []float64 `json:"importance"`
		Trees      []treeV1  `json:"trees"`
	}{Params: f.params, Importance: f.importance}
	for _, tr := range f.trees {
		var tv treeV1
		for ni, n := range tr.nodes {
			tv.Feature = append(tv.Feature, int(n.feature))
			if n.feature < 0 {
				tv.Thresh, tv.Left, tv.Right = append(tv.Thresh, 0), append(tv.Left, 0), append(tv.Right, 0)
				tv.Value = append(tv.Value, n.v)
				continue
			}
			tv.Thresh, tv.Left, tv.Right = append(tv.Thresh, n.v), append(tv.Left, int32(ni+1)), append(tv.Right, n.right)
			tv.Value = append(tv.Value, 0)
		}
		out.Trees = append(out.Trees, tv)
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// img returns the JSON string of a node image holding nodes, each
// {v, feature, right}.
func img(nodes ...[3]float64) string {
	var b []byte
	for _, n := range nodes {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n[0]))
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(n[1])))
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(n[2])))
	}
	return `"` + base64.StdEncoding.EncodeToString(b) + `"`
}

// TestForestJSONRoundTrip: a forest marshals to one node image per
// tree and reads back to the same predictions, importance, params and
// bytes; the same forest in version 1's five arrays reads back to the
// forest the images hold.
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
	if !bytes.Contains(data, []byte(`"nodes":["`)) || bytes.Contains(data, []byte(`"trees"`)) {
		t.Fatalf("marshaled forest holds no node images: %.200s", data)
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
	v1, err := readForest(v1JSON(t, f), 3)
	if err != nil {
		t.Fatal(err)
	}
	if resaved, err := json.Marshal(v1); err != nil || string(resaved) != string(data) {
		t.Fatalf("the version 1 form re-marshals differently (%v)", err)
	}
}

func TestForestUnmarshalRejectsMalformed(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	leaf := [3]float64{1, -1, 0}
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
		`{"nodes":["AAAA!AAA"]}`,                            // not base64
		`{"nodes":["AAAA"]}`,                                // 3 bytes, not whole nodes
		`{"nodes":[` + img(leaf)[:len(img(leaf))-5] + `"]}`, // a node cut short
		`{"nodes":[""]}`,                                    // empty tree
		`{"nodes":[]}`,                                      // no trees
		`{"nodes":null}`,                                    // no trees
		`{"nodes":[null]}`,                                  // not a string
		`{"nodes":[` + img(leaf) + `,7]}`,                   // not a string
		`{"nodes":[` + img([3]float64{0.5, 1, 2}, leaf, leaf) + `]}`,                                               // feature out of range
		`{"nodes":[` + img([3]float64{0.5, 0, 0}, leaf, leaf) + `]}`,                                               // right child is the node itself
		`{"nodes":[` + img(leaf, [3]float64{0.5, 0, 0}, leaf) + `]}`,                                               // right child before the node
		`{"nodes":[` + img([3]float64{0.5, 0, 3}, leaf, leaf) + `]}`,                                               // right child past the tree
		`{"nodes":[` + img([3]float64{nan, -1, 0}) + `]}`,                                                          // NaN leaf
		`{"nodes":[` + img([3]float64{-inf, -1, 0}) + `]}`,                                                         // -Inf leaf
		`{"nodes":[` + img([3]float64{inf, 0, 2}, leaf, leaf) + `]}`,                                               // +Inf threshold
		`{"nodes":[` + img(leaf) + `],"trees":[{"feature":[-1],"thresh":[0],"left":[0],"right":[0],"value":[1]}]}`, // both layouts
		`{"trees":[{"feature":[-1],"thresh":[0],"left":[0],"right":[0],"value":[1]}],"Nodes":[` + img(leaf) + `]}`, // both, nodes second
	}
	for i, c := range cases {
		if _, err := readForest([]byte(c), 1); err == nil {
			t.Errorf("malformed case %d accepted: %s", i, c)
		}
	}
	// Keys match case-insensitively and unknown keys are skipped, as
	// encoding/json does for struct fields.
	for _, ok := range []string{
		`{"PARAMS":{"trees":1},"extra":[{"a":null}],"trees":[{"Feature":[-1],"thresh":[0],"left":[0],"right":[0],"value":[2.5]}]}`,
		`{"PARAMS":{"trees":1},"extra":[{"a":null}],"NODES":[` + img([3]float64{2.5, -1, 0}) + `]}`,
	} {
		f, err := readForest([]byte(ok), 1)
		if err != nil {
			t.Fatal(err)
		}
		if f.params.Trees != 1 || f.Predict([]float64{0}) != 2.5 {
			t.Fatalf("decoded %+v", f)
		}
	}
}

// TestForestReadArraysInAnyOrder: the node arrays may come in any key
// order; ones read before "feature" are placed once it is known, and
// fields no walk reads, in arrays or in an image, come back in
// MarshalJSON's canonical form.
func TestForestReadArraysInAnyOrder(t *testing.T) {
	saveOrder := `{"params":{"Trees":0,"MaxDepth":0,"MinLeaf":0,"MTry":0,"SampleFrac":0},"importance":[1],` +
		`"nodes":[` + img([3]float64{0.5, 0, 2}, [3]float64{1, -1, 0}, [3]float64{2, -1, 0}) + `]}`
	for _, in := range []string{
		`{"trees":[{"value":[9,1,2],"right":[2,0,0],"left":[1,0,0],"thresh":[0.5,0,0],"feature":[0,-1,-1]}],"importance":[1]}`,
		`{"trees":[{"thresh":[0.5,7,7],"feature":[0,-3,-1],"value":[9,1,2],"left":[1,5,5],"right":[2,5,5]}],"importance":[1]}`,
		`{"nodes":[` + img([3]float64{0.5, 0, 2}, [3]float64{1, -3, 7}, [3]float64{2, -1, -9}) + `],"importance":[1]}`,
		saveOrder,
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

// TestMarshalRefusesNonFinite: a forest holding a NaN or infinite
// value does not marshal, as encoding/json refuses one, so no writer
// makes a file ReadForest refuses.
func TestMarshalRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := &Forest{trees: []tree{{nodes: []node{{v: v, feature: -1}}}}}
		if _, err := json.Marshal(f); err == nil {
			t.Errorf("a leaf of %v marshaled", v)
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

// readForestSerial reads the trees of a forest, images or five arrays,
// one after another in place, skipping every other field: the serial
// read whose errors ReadForest must report.
func readForestSerial(data []byte, numFeatures int) error {
	r := jsonread.New(data)
	err := r.Fields(forestFields, func(field string) error {
		read := readTree
		switch field {
		case "nodes":
			read = readImage
		case "trees":
		default:
			return r.Skip()
		}
		var s treeScratch
		ti := 0
		return r.Array(func() error {
			_, err := read(r, ti, numFeatures, &s)
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
	clean := v1JSON(t, f)
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

	// The same contract for node images. edit changes the image of tree
	// ti; ReadForest must fail as the serial read does, on tree first.
	images, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	type edit func(image string) string
	badChar := func(im string) string { return im[:9] + "!" + im[10:] }
	control := func(im string) string { return im[:5] + "\x01" + im[5:] }
	cut := func(im string) string { return im[:len(im)-5] + `"` }
	outOfRange := func(im string) string { // feature 1000 at node 0
		b, _ := base64.StdEncoding.DecodeString(im[1 : len(im)-1])
		binary.LittleEndian.PutUint32(b[8:], 1000)
		return `"` + base64.StdEncoding.EncodeToString(b) + `"`
	}
	quoteAt := func(data []byte, ti int) (start, end int) {
		at := bytes.Index(data, []byte(`"nodes":[`)) + len(`"nodes":[`)
		for range ti {
			at += bytes.IndexByte(data[at+1:], '"') + 3 // past the closing quote and ','
		}
		return at, at + 2 + bytes.IndexByte(data[at+1:], '"')
	}
	put2 := func(data []byte, ti int, e edit) []byte {
		start, end := quoteAt(data, ti)
		return append(append(append([]byte(nil), data[:start]...), e(string(data[start:end]))...), data[end:]...)
	}
	for _, c := range []struct {
		name         string
		first, later int
		firstBad     edit
		laterBad     edit
	}{
		{"bad base64, then control byte", 2, 5, badChar, control},
		{"control byte, then bad base64", 2, 5, control, badChar},
		{"short image, then bad base64", 1, 6, cut, badChar},
		{"feature out of range, then short image", 3, 4, outOfRange, cut},
	} {
		data := put2(images, c.later, c.laterBad)
		data = put2(data, c.first, c.firstBad)
		want := readForestSerial(data, 3)
		if want == nil || !strings.Contains(want.Error(), fmt.Sprintf("tree %d", c.first)) && !errors.As(want, new(*jsonread.SyntaxError)) {
			t.Fatalf("%s: serial read fails with %v, not on tree %d", c.name, want, c.first)
		}
		wantMsg := want.Error()
		if errors.As(want, new(*jsonread.SyntaxError)) {
			wantMsg = fmt.Sprintf("rf: tree %d: %v", c.first, want)
		}
		if _, got := readForest(data, 3); got == nil || got.Error() != wantMsg {
			t.Errorf("%s: ReadForest fails with %v, want %s", c.name, got, wantMsg)
		}
	}
}

// maxDepthInTree is how deep a value inside a tree of a top-level forest
// may nest: encoding/json's limit of 10 000 less the forest object, the
// trees array and the tree object.
const maxDepthInTree = 10000 - 3
