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

// v2JSON writes f in format version 2, one base64 node image per tree,
// as builds before the nodes moved out of the JSON wrote it.
func v2JSON(t *testing.T, f *Forest) []byte {
	t.Helper()
	out := struct {
		Params     Params    `json:"params"`
		Importance []float64 `json:"importance"`
		Nodes      [][]byte  `json:"nodes"`
	}{Params: f.params, Importance: f.importance}
	for ti := range f.trees {
		image, err := (&Forest{trees: f.trees[ti : ti+1]}).AppendNodes(nil)
		if err != nil {
			t.Fatal(err)
		}
		out.Nodes = append(out.Nodes, image)
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// v3 writes f in format version 3: the JSON of its header and, apart,
// its node images.
func v3(t *testing.T, f *Forest) (header, nodes []byte) {
	t.Helper()
	header, err := json.Marshal(f.Header())
	if err != nil {
		t.Fatal(err)
	}
	if nodes, err = f.AppendNodes(nil); err != nil {
		t.Fatal(err)
	}
	return header, nodes
}

// readV3 reads a forest from a version 3 header and its node images.
func readV3(header, nodes []byte, numFeatures int) (*Forest, error) {
	f, err := readForest(header, numFeatures)
	if err != nil {
		return nil, err
	}
	if err := ReadNodes(nodes, numFeatures, f); err != nil {
		return nil, err
	}
	return f, nil
}

// nodeImage returns a node image holding nodes, each {v, feature, right}.
func nodeImage(nodes ...[3]float64) []byte {
	var b []byte
	for _, n := range nodes {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n[0]))
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(n[1])))
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(n[2])))
	}
	return b
}

// img returns the JSON string of a node image holding nodes, each
// {v, feature, right}.
func img(nodes ...[3]float64) string {
	return `"` + base64.StdEncoding.EncodeToString(nodeImage(nodes...)) + `"`
}

// TestForestJSONRoundTrip: a forest writes to a version 3 header, which
// counts each tree's nodes, and node images, which read back to the same
// predictions, importance, params and bytes; the same forest in version
// 1's five arrays and in version 2's base64 images reads back to the
// forest the version 3 bytes hold.
func TestForestJSONRoundTrip(t *testing.T) {
	d := synth(150, func(x []float64) float64 { return x[0]*x[1] + x[2] }, 21)
	f, err := Train(d, Params{Trees: 12}, 22)
	if err != nil {
		t.Fatal(err)
	}
	header, nodes := v3(t, f)
	if !bytes.Contains(header, []byte(`"node_counts":[`)) || bytes.Contains(header, []byte(`"trees"`)) || bytes.Contains(header, []byte(`"nodes"`)) {
		t.Fatalf("forest header holds no node counts, or holds nodes: %.200s", header)
	}
	g, err := readV3(header, nodes, 3)
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
	if g.AwaitsNodes() {
		t.Fatal("a forest ReadNodes built still awaits nodes")
	}
	sameBytes := func(name string, h *Forest) {
		t.Helper()
		gotHeader, gotNodes := v3(t, h)
		if !bytes.Equal(gotHeader, header) || !bytes.Equal(gotNodes, nodes) {
			t.Fatalf("%s writes different version 3 bytes", name)
		}
	}
	sameBytes("write -> read -> write", g)
	for _, old := range []struct {
		name string
		data []byte
	}{{"the version 1 form", v1JSON(t, f)}, {"the version 2 form", v2JSON(t, f)}} {
		h, err := readForest(old.data, 3)
		if err != nil {
			t.Fatalf("%s: %v", old.name, err)
		}
		sameBytes(old.name, h)
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
		`{"node_counts":[]}`,                              // no trees
		`{"node_counts":null}`,                            // no trees
		`{"node_counts":[1,0]}`,                           // empty tree
		`{"node_counts":[-1]}`,                            // negative count
		`{"node_counts":[2147483648]}`,                    // count overflows int32
		`{"node_counts":[1.5]}`,                           // not an integer
		`{"node_counts":[1],"nodes":[` + img(leaf) + `]}`, // node counts and images
		`{"nodes":[` + img(leaf) + `],"NODE_COUNTS":[1]}`, // the same, counts second
		`{"trees":[],"node_counts":[1]}`,                  // node counts and arrays
		`{"node_counts":[1],"node_counts":[1]}`,           // duplicate key
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
		`{"PARAMS":{"trees":1},"extra":[{"a":null}],"Node_Counts":[1]}`,
	} {
		f, err := readForest([]byte(ok), 1)
		if err == nil && f.AwaitsNodes() {
			err = ReadNodes(nodeImage([3]float64{2.5, -1, 0}), 1, f)
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.params.Trees != 1 || f.Predict([]float64{0}) != 2.5 {
			t.Fatalf("decoded %+v", f)
		}
	}
}

// TestReadNodesRejectsMalformed: ReadNodes refuses node bytes that are
// not exactly the nodes the headers count, before it allocates, and every
// node a version 2 image is refused for, naming the forest, the tree and
// the node.
func TestReadNodesRejectsMalformed(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	leaf, split := [3]float64{1, -1, 0}, [3]float64{0.5, 0, 2}
	good := nodeImage(split, leaf, leaf)
	for _, c := range []struct {
		counts [2]string // the node counts of two forests
		nodes  []byte
		want   string
	}{
		{[2]string{"[3]", "[1]"}, good, "rf: the node counts call for more than the 48 bytes of nodes that follow"},
		{[2]string{"[3]", "[1]"}, append(append([]byte(nil), good...), nodeImage(leaf)[:15]...), "rf: the node counts call for more than the 63 bytes of nodes that follow"},
		{[2]string{"[3]", "[1]"}, append(nodeImage(split, leaf, leaf, leaf), 0), "rf: 65 bytes of nodes follow, want 64 for 4 nodes"},
		{[2]string{"[3]", "[2147483647]"}, nodeImage(split, leaf, leaf, leaf), "rf: the node counts call for more than the 64 bytes of nodes that follow"},
		{[2]string{"[3]", "[1]"}, nodeImage(split, leaf, leaf, [3]float64{nan, -1, 0}), "rf: forest 1 tree 0 node 0 holds NaN"},
		{[2]string{"[1,3]", "[1]"}, nodeImage(leaf, split, leaf, [3]float64{-inf, -1, 0}, leaf), "rf: forest 0 tree 1 node 2 holds -Inf"},
		{[2]string{"[3]", "[1]"}, nodeImage([3]float64{inf, 0, 2}, leaf, leaf, leaf), "rf: forest 0 tree 0 node 0 holds +Inf"},
		{[2]string{"[3]", "[1]"}, nodeImage([3]float64{0.5, 1, 2}, leaf, leaf, leaf), "rf: forest 0 tree 0 node 0 splits on feature 1 of 1"},
		{[2]string{"[3]", "[1]"}, nodeImage([3]float64{0.5, 0, 0}, leaf, leaf, leaf), "rf: forest 0 tree 0 node 0 has an out-of-range right child"},
		{[2]string{"[3]", "[1]"}, nodeImage(leaf, [3]float64{0.5, 0, 0}, leaf, leaf), "rf: forest 0 tree 0 node 1 has an out-of-range right child"},
		{[2]string{"[3]", "[1]"}, nodeImage([3]float64{0.5, 0, 3}, leaf, leaf, leaf), "rf: forest 0 tree 0 node 0 has an out-of-range right child"},
	} {
		var forests []*Forest
		for _, counts := range c.counts {
			f, err := readForest([]byte(`{"node_counts":`+counts+`}`), 1)
			if err != nil {
				t.Fatal(err)
			}
			forests = append(forests, f)
		}
		if err := ReadNodes(c.nodes, 1, forests...); err == nil || err.Error() != c.want {
			t.Errorf("counts %v, %d bytes: error %v, want %s", c.counts, len(c.nodes), err, c.want)
		}
	}
	f, err := readForest([]byte(`{"node_counts":[3]}`), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadNodes(good, 1, f); err != nil {
		t.Fatal(err)
	}
	if err := ReadNodes(good, 1, f); err == nil {
		t.Fatal("ReadNodes built a forest's trees twice")
	}
}

// TestForestReadArraysInAnyOrder: the node arrays may come in any key
// order; ones read before "feature" are placed once it is known, and
// fields no walk reads, in arrays, in an image or in a version 3 node,
// come back in the canonical form AppendNodes writes.
func TestForestReadArraysInAnyOrder(t *testing.T) {
	wantHeader := `{"params":{"Trees":0,"MaxDepth":0,"MinLeaf":0,"MTry":0,"SampleFrac":0},"importance":[1],"node_counts":[3]}`
	wantNodes := nodeImage([3]float64{0.5, 0, 2}, [3]float64{1, -1, 0}, [3]float64{2, -1, 0})
	for _, in := range []struct {
		json  string
		nodes []byte // the node images after a version 3 header
	}{
		{json: `{"trees":[{"value":[9,1,2],"right":[2,0,0],"left":[1,0,0],"thresh":[0.5,0,0],"feature":[0,-1,-1]}],"importance":[1]}`},
		{json: `{"trees":[{"thresh":[0.5,7,7],"feature":[0,-3,-1],"value":[9,1,2],"left":[1,5,5],"right":[2,5,5]}],"importance":[1]}`},
		{json: `{"nodes":[` + img([3]float64{0.5, 0, 2}, [3]float64{1, -3, 7}, [3]float64{2, -1, -9}) + `],"importance":[1]}`},
		{json: `{"node_counts":[3],"importance":[1]}`, nodes: nodeImage([3]float64{0.5, 0, 2}, [3]float64{1, -3, 7}, [3]float64{2, -1, -9})},
		{json: wantHeader, nodes: wantNodes},
	} {
		var f *Forest
		var err error
		if in.nodes != nil {
			f, err = readV3([]byte(in.json), in.nodes, 1)
		} else {
			f, err = readForest([]byte(in.json), 1)
		}
		if err != nil {
			t.Fatalf("%s: %v", in.json, err)
		}
		if f.Predict([]float64{0.5}) != 1 || f.Predict([]float64{0.75}) != 2 {
			t.Fatalf("%s: predicts %g, %g, want 1, 2", in.json, f.Predict([]float64{0.5}), f.Predict([]float64{0.75}))
		}
		header, nodes := v3(t, f)
		if string(header) != wantHeader || !bytes.Equal(nodes, wantNodes) {
			t.Fatalf("%s: writes\n%s\n%x, want\n%s\n%x", in.json, header, nodes, wantHeader, wantNodes)
		}
	}
}

// TestMarshalRefusesNonFinite: a forest holding a NaN or infinite
// value writes no node images, as encoding/json refuses such a value,
// so no writer makes a file ReadNodes refuses.
func TestMarshalRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := &Forest{trees: []tree{{nodes: []node{{v: 1, feature: -1}}}, {nodes: []node{{v: v, feature: -1}}}}}
		if _, err := f.AppendNodes(nil); err == nil || err.Error() != fmt.Sprintf("rf: tree 1 node 0 holds %v", v) {
			t.Errorf("a leaf of %v: error %v", v, err)
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

// TestForestErrorIsSerialReadsFirst pins the error contract of reading
// trees. With several trees defective, ReadForest fails with the error a
// read in document order stops at: the lowest-index tree's, a syntax
// error at its absolute offset and naming its tree. Nesting inside a
// tree counts from the document's top.
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
		_, err := readForest(data, 3)
		var syntax *jsonread.SyntaxError
		isSyntax := errors.As(err, &syntax)
		switch {
		case err == nil:
			t.Errorf("%s: ReadForest accepted the forest", c.name)
		case isSyntax != (c.firstBad.errAt >= 0):
			t.Errorf("%s: ReadForest fails with %v, want a syntax error: %v", c.name, err, !isSyntax)
		case isSyntax && (syntax.Offset != at+c.firstBad.errAt || err.Error() != fmt.Sprintf("rf: tree %d: %v", c.first, syntax)):
			t.Errorf("%s: ReadForest fails with %v, want one naming tree %d at offset %d", c.name, err, c.first, at+c.firstBad.errAt)
		case !isSyntax && !strings.HasPrefix(err.Error(), fmt.Sprintf("rf: tree %d ", c.first)):
			t.Errorf("%s: ReadForest fails with %v, not on tree %d", c.name, err, c.first)
		}
	}
	atLimit, _ := put(clean, 1, defect{"{", deep(maxDepthInTree), 0})
	if _, err := readForest(atLimit, 3); err != nil {
		t.Fatalf("nesting at the limit inside a tree: %v", err)
	}

	// The same contract for node images. edit changes the image of tree
	// ti; ReadForest must fail on tree first, with the error want names
	// given the tree and the edited image, which starts at offset start.
	images := v2JSON(t, f)
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
		want         func(ti, start int, image string) string
	}{
		{"bad base64, then control byte", 2, 5, badChar, control, func(ti, _ int, _ string) string {
			return fmt.Sprintf("rf: tree %d: node image: illegal base64 data at input byte 8", ti)
		}},
		{"control byte, then bad base64", 2, 5, control, badChar, func(ti, start int, _ string) string {
			return fmt.Sprintf("rf: tree %d: offset %d: control character 0x1 in string", ti, start+5)
		}},
		{"short image, then bad base64", 1, 6, cut, badChar, func(ti, _ int, image string) string {
			b, _ := base64.StdEncoding.DecodeString(image[1 : len(image)-1])
			return fmt.Sprintf("rf: tree %d: node image of %d bytes is not whole 16-byte nodes", ti, len(b))
		}},
		{"feature out of range, then short image", 3, 4, outOfRange, cut, func(ti, _ int, _ string) string {
			return fmt.Sprintf("rf: tree %d node 0 splits on feature 1000 of 3", ti)
		}},
	} {
		data := put2(images, c.later, c.laterBad)
		data = put2(data, c.first, c.firstBad)
		start, end := quoteAt(data, c.first)
		want := c.want(c.first, start, string(data[start:end]))
		if _, err := readForest(data, 3); err == nil || err.Error() != want {
			t.Errorf("%s: ReadForest fails with %v, want %s", c.name, err, want)
		}
	}
}

// maxDepthInTree is how deep a value inside a tree of a top-level forest
// may nest: encoding/json's limit of 10 000 less the forest object, the
// trees array and the tree object.
const maxDepthInTree = 10000 - 3
