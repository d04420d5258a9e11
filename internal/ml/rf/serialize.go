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
// form from r, writing each tree's node arrays straight into the tree's
// node arena. It accepts what jsonread accepts and checks what walking
// the trees relies on: at least one tree, no empty tree, equal-length
// node arrays, and every split on a feature below numFeatures with its
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
			f.importance = make([]float64, 0, r.ArrayLen())
			return r.Array(func() error {
				v, err := r.Float()
				f.importance = append(f.importance, v)
				return err
			})
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
		var s treeScratch
		for {
			ti := int(next.Add(1) - 1)
			if ti >= len(spans) {
				return
			}
			r := &spans[ti]
			nodes, err := readTree(r, ti, numFeatures, &s)
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

// treeScratch holds the node arrays a tree lists before "feature": until
// the features say which nodes split, a threshold, a leaf value or a
// left link can be neither placed nor checked. Save lists "feature"
// first, so its files never need it; otherwise one scratch serves every
// tree one goroutine reads.
type treeScratch struct {
	thresh, value []float64
	left          []int32
}

func (s *treeScratch) size(n int) {
	s.thresh = slices.Grow(s.thresh[:0], n)[:n]
	s.value = slices.Grow(s.value[:0], n)[:n]
	s.left = slices.Grow(s.left[:0], n)[:n]
}

// Bits of readTree's field sets, in treeFields order.
const (
	bitFeature = 1 << iota
	bitThresh
	bitLeft
	bitRight
	bitValue
	allTreeFields = bitValue<<1 - 1
)

// readTree reads tree ti. The first node array read sizes the arena;
// every other array must fill it exactly.
func readTree(r *jsonread.Reader, ti, numFeatures int, s *treeScratch) ([]node, error) {
	var nodes []node
	var read, early uint8 // fields read; fields read before "feature"
	err := r.Fields(treeFields, func(field string) error {
		if nodes == nil {
			nodes = make([]node, r.ArrayLen())
		}
		bit := uint8(bitFeature << slices.Index(treeFields, field))
		inScratch := read&bitFeature == 0 && bit&(bitThresh|bitLeft|bitValue) != 0
		if inScratch && early&(bitThresh|bitLeft|bitValue) == 0 {
			s.size(len(nodes))
		}
		read |= bit
		if inScratch {
			early |= bit
		}
		i := 0
		err := r.Array(func() error {
			if i == len(nodes) {
				return inconsistentTree(ti)
			}
			n := &nodes[i]
			var err error
			var v int64
			var x float64
			switch bit {
			case bitFeature:
				v, err = r.Int(strconv.IntSize)
				if err == nil && v >= int64(numFeatures) {
					err = fmt.Errorf("rf: tree %d node %d splits on feature %d of %d", ti, i, v, numFeatures)
				}
				n.feature = int32(max(v, -1))
			case bitThresh:
				x, err = r.Float()
				if inScratch {
					s.thresh[i] = x
				} else if n.feature >= 0 {
					n.v = x
				}
			case bitLeft:
				v, err = r.Int(32)
				if inScratch {
					s.left[i] = int32(v)
				} else if err == nil && n.feature >= 0 && v != int64(i+1) {
					err = leftNotNext(ti, i)
				}
			case bitRight:
				v, err = r.Int(32)
				n.right = int32(v)
			default: // bitValue
				x, err = r.Float()
				if inScratch {
					s.value[i] = x
				} else if n.feature < 0 {
					n.v = x
				}
			}
			i++
			return err
		})
		if err == nil && i != len(nodes) {
			err = inconsistentTree(ti)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("rf: tree %d is empty", ti)
	}
	if read != allTreeFields {
		return nil, inconsistentTree(ti)
	}
	n := int32(len(nodes))
	for ni := range nodes {
		nd := &nodes[ni]
		if nd.feature < 0 {
			nd.right = 0
			if early&bitValue != 0 {
				nd.v = s.value[ni]
			}
			continue
		}
		if early&bitThresh != 0 {
			nd.v = s.thresh[ni]
		}
		if early&bitLeft != 0 && s.left[ni] != int32(ni+1) {
			return nil, leftNotNext(ti, ni)
		}
		if nd.right <= int32(ni) || nd.right >= n {
			return nil, fmt.Errorf("rf: tree %d node %d has an out-of-range right child", ti, ni)
		}
	}
	return nodes, nil
}

func inconsistentTree(ti int) error {
	return fmt.Errorf("rf: tree %d has inconsistent node arrays", ti)
}

func leftNotNext(ti, ni int) error {
	return fmt.Errorf("rf: tree %d node %d: left child is not the next node", ti, ni)
}
