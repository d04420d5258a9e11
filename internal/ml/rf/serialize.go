package rf

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"napel/internal/jsonread"
)

// forestJSON is the stable on-disk representation of a Forest: five
// node arrays per tree, one entry per node in arena order.
type forestJSON struct {
	Params     Params     `json:"params"`
	Importance []float64  `json:"importance"`
	Trees      []treeJSON `json:"trees"`
}

type treeJSON struct {
	Feature []int     `json:"feature"`
	Thresh  []float64 `json:"thresh"`
	Left    []int32   `json:"left"`
	Right   []int32   `json:"right"`
	Value   []float64 `json:"value"`
}

// MarshalJSON implements json.Marshaler. Fields no walk reads are
// written as 0: a split's value and a leaf's thresh, left and right.
func (f *Forest) MarshalJSON() ([]byte, error) {
	out := forestJSON{
		Params:     f.params,
		Importance: f.importance,
		Trees:      make([]treeJSON, len(f.trees)),
	}
	for ti := range f.trees {
		nodes := f.trees[ti].nodes
		tj := treeJSON{
			Feature: make([]int, len(nodes)),
			Thresh:  make([]float64, len(nodes)),
			Left:    make([]int32, len(nodes)),
			Right:   make([]int32, len(nodes)),
			Value:   make([]float64, len(nodes)),
		}
		for ni, n := range nodes {
			tj.Feature[ni] = int(n.feature)
			if n.feature < 0 {
				tj.Value[ni] = n.v
				continue
			}
			tj.Thresh[ni] = n.v
			tj.Left[ni] = int32(ni + 1)
			tj.Right[ni] = n.right
		}
		out.Trees[ti] = tj
	}
	return json.Marshal(out)
}

// Field names of the MarshalJSON form: the JSON names of forestJSON,
// Params and treeJSON.
var (
	forestFields = []string{"params", "importance", "trees"}
	paramsFields = []string{"Trees", "MaxDepth", "MinLeaf", "MTry", "SampleFrac"}
	treeFields   = []string{"feature", "thresh", "left", "right", "value"}
)

// ReadForest reads a forest over numFeatures features in its MarshalJSON
// form from r, building each tree's node arena from its node arrays. It
// accepts what jsonread accepts and checks what walking the trees relies
// on: at least one tree, no empty tree, equal-length node arrays, and
// every split on a feature below numFeatures with its
// left child the next node and its right child after it in its tree, as
// Train lays trees out, so a walk can neither index out of range nor
// loop. Fields no walk reads are dropped (see MarshalJSON).
//
// The trees are read on up to GOMAXPROCS goroutines (see readTrees), yet
// ReadForest accepts, returns and fails exactly as a serial read would.
func ReadForest(r *jsonread.Reader, numFeatures int) (*Forest, error) {
	f := &Forest{}
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
		default: // "trees"
			var spans []jsonread.Reader
			err := r.Array(func() error {
				spans = append(spans, r.Span())
				return nil
			})
			// A defective tree lies before anything Array rejects, so a
			// serial read would have failed on the tree first.
			trees, terr := readTrees(spans, numFeatures)
			if terr != nil {
				return terr
			}
			f.trees = trees
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	if len(f.trees) == 0 {
		return nil, errors.New("rf: serialized forest has no trees")
	}
	return f, nil
}

// readTrees reads one tree from each span, and nothing after it, on
// min(GOMAXPROCS, len(spans)) goroutines that each keep their own
// scratch. Spans give every tree the offsets and depths of a serial
// read, so the error returned, that of the lowest-index tree that
// fails, is the error a serial read stops at; a syntax error, which
// carries only its offset, gains the tree's index.
func readTrees(spans []jsonread.Reader, numFeatures int) ([]tree, error) {
	trees := make([]tree, len(spans))
	errs := make([]error, len(spans))
	var next atomic.Int64
	work := func() {
		s := scratchPool.Get().(*treeScratch)
		defer scratchPool.Put(s)
		for {
			ti := int(next.Add(1) - 1)
			if ti >= len(spans) {
				return
			}
			r := &spans[ti]
			nodes, err := readTree(r, ti, numFeatures, s)
			if err == nil {
				err = r.End()
			}
			trees[ti].nodes, errs[ti] = nodes, err
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(spans)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for ti, err := range errs {
		if err == nil {
			continue
		}
		var syntax *jsonread.SyntaxError
		if errors.As(err, &syntax) {
			return nil, fmt.Errorf("rf: tree %d: %w", ti, err)
		}
		return nil, err
	}
	return trees, nil
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

// treeScratch holds the five node arrays of a tree while it is read.
// One scratch serves every tree one goroutine reads. Its arrays are
// carved from two blocks, one per element type, which reserve sizes to
// twice the tree that outgrows them, so the trees of one forest, which
// differ in size far less than twofold, seldom allocate.
type treeScratch struct {
	feature, left, right []int64
	thresh, value        []float64
	size                 int // capacity each array was given
}

// scratchPool hands the scratch of one forest's read to the next, such
// as a model file's second forest.
var scratchPool = sync.Pool{New: func() any { return new(treeScratch) }}

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
// s, then the nodes from them in one pass that checks each.
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
		return nil, inconsistentTree(ti)
	}
	if n == 0 {
		return nil, fmt.Errorf("rf: tree %d is empty", ti)
	}
	nodes := make([]node, n)
	for i := range nodes {
		nd, feat := &nodes[i], s.feature[i]
		switch {
		case feat >= int64(numFeatures):
			return nil, fmt.Errorf("rf: tree %d node %d splits on feature %d of %d", ti, i, feat, numFeatures)
		case feat < 0:
			nd.feature, nd.v = -1, s.value[i]
		case s.left[i] != int64(i+1):
			return nil, fmt.Errorf("rf: tree %d node %d: left child is not the next node", ti, i)
		case s.right[i] <= int64(i) || s.right[i] >= int64(n):
			return nil, fmt.Errorf("rf: tree %d node %d has an out-of-range right child", ti, i)
		default:
			nd.feature, nd.v, nd.right = int32(feat), s.thresh[i], int32(s.right[i])
		}
	}
	return nodes, nil
}

func inconsistentTree(ti int) error {
	return fmt.Errorf("rf: tree %d has inconsistent node arrays", ti)
}
