package rf

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"napel/internal/jsonread"
)

// nodeSize is the length of one node image: v as float64 bits, then
// feature and right as int32s, all little-endian. A leaf's feature is -1
// and its right 0; a split's left child is the next node. This is the
// resident node layout, so a tree's image is its arena.
const nodeSize = 16

// Header is a forest as a model file of format version 3 holds it in
// its JSON envelope: params, importance and each tree's node count. The
// trees' node images (AppendNodes) follow the envelope.
type Header struct {
	Params     Params    `json:"params"`
	Importance []float64 `json:"importance"`
	NodeCounts []int     `json:"node_counts"`
}

// Header returns f's version 3 header.
func (f *Forest) Header() Header {
	h := Header{Params: f.params, Importance: f.importance, NodeCounts: make([]int, len(f.trees))}
	for ti := range f.trees {
		h.NodeCounts[ti] = len(f.trees[ti].nodes)
	}
	return h
}

// AppendNodes appends the node images of f's trees to b, tree after
// tree. Like encoding/json, it refuses a NaN or infinite value, which no
// reader accepts.
func (f *Forest) AppendNodes(b []byte) ([]byte, error) {
	for ti := range f.trees {
		for ni, n := range f.trees[ti].nodes {
			if math.IsNaN(n.v) || math.IsInf(n.v, 0) {
				return nil, fmt.Errorf("rf: tree %d node %d holds %v", ti, ni, n.v)
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.v))
			b = binary.LittleEndian.AppendUint32(b, uint32(n.feature))
			b = binary.LittleEndian.AppendUint32(b, uint32(n.right))
		}
	}
	return b, nil
}

// Field names of the forms ReadForest reads: those of Header, with
// version 1's "trees" and version 2's "nodes" beside "node_counts", of
// Params, and of a version 1 tree's five node arrays.
var (
	forestFields = []string{"params", "importance", "trees", "nodes", "node_counts"}
	paramsFields = []string{"Trees", "MaxDepth", "MinLeaf", "MTry", "SampleFrac"}
	treeFields   = []string{"feature", "thresh", "left", "right", "value"}
)

// ReadForest reads a forest over numFeatures features from r, in one of
// three forms, each of which holds the trees under its own key:
//
//   - version 1's "trees": five node arrays per tree;
//   - version 2's "nodes": one base64 node image per tree;
//   - version 3's "node_counts" (Header): each tree's node count, with
//     the nodes themselves outside the JSON. The forest returned then
//     awaits its trees (AwaitsNodes) until ReadNodes builds them.
//
// A forest holding two of the keys is refused. ReadForest accepts what
// jsonread accepts and checks what walking the trees relies on: at
// least one tree, no empty tree, and every node as setNode checks it, so
// a walk can neither index out of range nor loop. An image must hold
// whole nodes; a tree's arrays must be of equal length; a node count
// must be positive. Fields no walk reads are dropped: a leaf's feature
// reads back as -1 and its right child as 0, and in the five arrays a
// split's value and a leaf's thresh, left and right are ignored. The
// forest reports an OOBMRE of -1, since no form stores it.
//
// The trees of the first two forms are read in place, one after another,
// so ReadForest fails with the error of the first defective tree; a
// syntax error also names its tree.
func ReadForest(r *jsonread.Reader, numFeatures int) (*Forest, error) {
	f := &Forest{oobMRE: -1}
	layout := ""
	var s treeScratch
	err := r.Fields(forestFields, func(field string) error {
		switch field {
		case "params":
			return readParams(r, &f.params)
		case "importance":
			if r.Null() {
				return nil
			}
			var err error
			f.importance, err = r.Floats(make([]float64, 0, r.ArrayLen()))
			return err
		}
		// "trees", "nodes" or "node_counts"
		if layout != "" {
			return fmt.Errorf("rf: forest holds both %q and %q", layout, field)
		}
		layout = field
		if field == "node_counts" {
			return readCounts(r, f)
		}
		inTree := false
		err := r.Array(func() error {
			ti := len(f.trees)
			var nodes []node
			var err error
			switch field {
			case "trees":
				nodes, err = readTree(r, ti, numFeatures, &s)
			default: // "nodes"
				nodes, err = readImage(r, ti, numFeatures, &s)
			}
			if err == nil && len(nodes) == 0 {
				err = fmt.Errorf("rf: tree %d is empty", ti)
			}
			if err != nil {
				inTree = true
				return err
			}
			f.trees = append(f.trees, tree{nodes: nodes})
			return nil
		})
		// The failed tree was not appended, so its index is len(f.trees).
		if inTree && errors.As(err, new(*jsonread.SyntaxError)) {
			return fmt.Errorf("rf: tree %d: %w", len(f.trees), err)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(f.trees) == 0 && len(f.counts) == 0 {
		return nil, errors.New("rf: serialized forest has no trees")
	}
	return f, nil
}

// readCounts reads a version 3 forest's node counts into f.counts.
func readCounts(r *jsonread.Reader, f *Forest) error {
	counts, err := r.Ints(make([]int64, 0, r.ArrayLen()), 32)
	if err != nil {
		return err
	}
	for ti, n := range counts {
		if n <= 0 {
			return fmt.Errorf("rf: tree %d has a node count of %d", ti, n)
		}
	}
	f.counts = counts
	return nil
}

// AwaitsNodes reports whether f was read from a version 3 header and
// ReadNodes has not yet built its trees.
func (f *Forest) AwaitsNodes() bool { return f.counts != nil }

// ReadNodes builds the trees of forests that ReadForest read from
// version 3 headers out of data: the node images of every tree of every
// forest, end to end in order, with nothing after them. data's length
// must be exactly what the node counts call for, which is checked before
// anything is allocated, so ReadNodes allocates in proportion to
// len(data). It builds each forest in one serial pass into one node
// arena, copying every node and checking it with setNode, and keeps no
// reference to data. An error names a forest by its index among forests.
func ReadNodes(data []byte, numFeatures int, forests ...*Forest) error {
	total := 0
	for fi, f := range forests {
		if !f.AwaitsNodes() {
			return fmt.Errorf("rf: forest %d awaits no nodes", fi)
		}
		for _, n := range f.counts {
			// Each count is below 2³¹, so the sum cannot overflow
			// before it passes what data holds.
			if total += int(n); total > len(data)/nodeSize {
				return fmt.Errorf("rf: the node counts call for more than the %d bytes of nodes that follow", len(data))
			}
		}
	}
	if total*nodeSize != len(data) {
		return fmt.Errorf("rf: %d bytes of nodes follow, want %d for %d nodes", len(data), total*nodeSize, total)
	}
	for fi, f := range forests {
		size := 0
		for _, n := range f.counts {
			size += int(n)
		}
		arena := make([]node, size)
		trees := make([]tree, len(f.counts))
		for ti, n := range f.counts {
			nodes := arena[:n:n]
			if ni, err := decodeNodes(nodes, data, numFeatures); err != nil {
				return fmt.Errorf("rf: forest %d tree %d node %d %v", fi, ti, ni, err)
			}
			trees[ti].nodes = nodes
			arena, data = arena[n:], data[nodeSize*n:]
		}
		f.trees, f.counts = trees, nil
	}
	return nil
}

func readParams(r *jsonread.Reader, p *Params) error {
	return r.Fields(paramsFields, func(field string) error {
		if field == "SampleFrac" {
			v, err := r.Float()
			p.SampleFrac = v
			return err
		}
		v, err := r.Int(strconv.IntSize)
		switch field {
		case "Trees":
			p.Trees = int(v)
		case "MaxDepth":
			p.MaxDepth = int(v)
		case "MinLeaf":
			p.MinLeaf = int(v)
		default: // "MTry"
			p.MTry = int(v)
		}
		return err
	})
}

// treeScratch holds a tree's decoded node image, or its five node
// arrays, while it is read. One scratch serves every tree of a forest.
// The image, and the arrays, which are carved from two blocks,
// one per element type, are sized to twice the tree that outgrows them,
// so the trees of one forest, which differ in size far less than
// twofold, seldom allocate.
type treeScratch struct {
	image                []byte
	feature, left, right []int64
	thresh, value        []float64
	size                 int // capacity each array was given
}

// reserve gives each array room for at least n nodes.
func (s *treeScratch) reserve(n int) {
	if n <= s.size {
		return
	}
	n *= 2
	s.size = n
	ints, floats := make([]int64, 3*n), make([]float64, 2*n)
	s.feature, s.left, s.right = ints[:0:n], ints[n:n:2*n], ints[2*n:2*n]
	s.thresh, s.value = floats[:0:n], floats[n:n]
}

// Bits of readTree's field set, in treeFields order.
const (
	bitFeature = 1 << iota
	bitThresh
	bitLeft
	bitRight
	bitValue
	allTreeFields = bitValue<<1 - 1
)

// readTree reads tree ti: its five node arrays, in any key order, into
// s, then the nodes from them in one pass that checks each. An empty
// tree reads as no nodes.
func readTree(r *jsonread.Reader, ti, numFeatures int, s *treeScratch) ([]node, error) {
	var read uint8
	err := r.Fields(treeFields, func(field string) error {
		if read == 0 {
			s.reserve(r.ArrayLen())
		}
		var err error
		switch field {
		case "feature":
			s.feature, err = r.Ints(s.feature[:0], strconv.IntSize)
		case "thresh":
			s.thresh, err = r.Floats(s.thresh[:0])
		case "left":
			s.left, err = r.Ints(s.left[:0], 32)
		case "right":
			s.right, err = r.Ints(s.right[:0], 32)
		default: // "value"
			s.value, err = r.Floats(s.value[:0])
		}
		read |= uint8(bitFeature << slices.Index(treeFields, field))
		return err
	})
	if err != nil {
		return nil, err
	}
	n := len(s.feature)
	if read != allTreeFields || len(s.thresh) != n || len(s.left) != n || len(s.right) != n || len(s.value) != n {
		return nil, fmt.Errorf("rf: tree %d has inconsistent node arrays", ti)
	}
	nodes := make([]node, n)
	for i := range nodes {
		v := s.thresh[i]
		if s.feature[i] < 0 {
			v = s.value[i]
		}
		if d := setNode(&nodes[i], i, n, numFeatures, v, s.feature[i], s.left[i], s.right[i]); d != nodeSound {
			return nil, fmt.Errorf("rf: tree %d node %d %v", ti, i, d.err(v, s.feature[i], numFeatures))
		}
	}
	return nodes, nil
}

// readImage reads tree ti as a node image: a base64 string, decoded as
// encoding/json decodes a []byte, into s, then the nodes from it in one
// pass that checks each. An empty image reads as no nodes.
func readImage(r *jsonread.Reader, ti, numFeatures int, s *treeScratch) ([]node, error) {
	b, err := r.StringBytes()
	if err != nil {
		return nil, err
	}
	if need := base64.StdEncoding.DecodedLen(len(b)); cap(s.image) < need {
		s.image = make([]byte, 2*need)
	}
	size, err := base64.StdEncoding.Decode(s.image[:cap(s.image)], b)
	if err != nil {
		return nil, fmt.Errorf("rf: tree %d: node image: %w", ti, err)
	}
	img := s.image[:size]
	if len(img)%nodeSize != 0 {
		return nil, fmt.Errorf("rf: tree %d: node image of %d bytes is not whole %d-byte nodes", ti, len(img), nodeSize)
	}
	nodes := make([]node, len(img)/nodeSize)
	if ni, err := decodeNodes(nodes, img, numFeatures); err != nil {
		return nil, fmt.Errorf("rf: tree %d node %d %v", ti, ni, err)
	}
	return nodes, nil
}

// decodeNodes fills the nodes of one tree from the first len(nodes) node
// images of img, checking each with setNode; an image's split has the
// next node as its left child. On a defect it returns the node's index
// and what is wrong with it.
func decodeNodes(nodes []node, img []byte, numFeatures int) (int, error) {
	n := len(nodes)
	for i := range nodes {
		// A fixed-size record leaves the reads below no bounds to check.
		rec := (*[nodeSize]byte)(img[nodeSize*i:])
		v := math.Float64frombits(binary.LittleEndian.Uint64(rec[:]))
		feat := int32(binary.LittleEndian.Uint32(rec[8:]))
		right := int32(binary.LittleEndian.Uint32(rec[12:]))
		if d := setNode(&nodes[i], i, n, numFeatures, v, int64(feat), int64(i+1), int64(right)); d != nodeSound {
			return i, d.err(v, int64(feat), numFeatures)
		}
	}
	return 0, nil
}

// A nodeDefect is what setNode finds wrong with a node, if anything.
type nodeDefect uint8

const (
	nodeSound nodeDefect = iota
	nodeNotFinite
	nodeFeatureOutOfRange
	nodeLeftNotNext
	nodeRightOutOfRange
)

// setNode checks node i of a tree of n nodes and, if it is sound, stores
// it in nd. The node holds v and splits on feature feat, or is a leaf if
// feat is negative, with children left and right. Its value must be
// finite, and a split must be on a feature below numFeatures, with its
// left child the next node and its right child after it and inside the
// tree, as Train lays trees out. A leaf keeps only its value. setNode is
// small enough to inline, so checking every node of a model costs no
// call per node.
func setNode(nd *node, i, n, numFeatures int, v float64, feat, left, right int64) nodeDefect {
	switch {
	case math.Float64bits(v)>>52&0x7ff == 0x7ff: // NaN or ±Inf
		return nodeNotFinite
	case feat >= int64(numFeatures):
		return nodeFeatureOutOfRange
	case feat < 0:
		*nd = node{v: v, feature: -1}
	case left != int64(i+1):
		return nodeLeftNotNext
	case right <= int64(i) || right >= int64(n):
		return nodeRightOutOfRange
	default:
		*nd = node{v: v, feature: int32(feat), right: int32(right)}
	}
	return nodeSound
}

// err says what d is in a node that holds v and splits on feat.
func (d nodeDefect) err(v float64, feat int64, numFeatures int) error {
	switch d {
	case nodeNotFinite:
		return fmt.Errorf("holds %v", v)
	case nodeFeatureOutOfRange:
		return fmt.Errorf("splits on feature %d of %d", feat, numFeatures)
	case nodeLeftNotNext:
		return errors.New("has a left child that is not the next node")
	default:
		return errors.New("has an out-of-range right child")
	}
}
