package rf

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"napel/internal/jsonread"
)

// forestJSON is the stable on-disk representation of a Forest. Node
// arrays are stored flat per tree, exactly mirroring the in-memory
// layout, so round-trips are lossless and predictions bit-identical.
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

// MarshalJSON implements json.Marshaler.
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
			tj.Feature[ni] = n.feature
			tj.Thresh[ni] = n.thresh
			tj.Left[ni] = n.left
			tj.Right[ni] = n.right
			tj.Value[ni] = n.value
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
// node arrays, and every split on a feature below numFeatures with both
// children after it in its tree, as Train lays trees out, so a walk can
// neither index out of range nor loop.
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
			return r.Array(func() error {
				nodes, err := readTree(r, len(f.trees), numFeatures)
				f.trees = append(f.trees, tree{nodes: nodes})
				return err
			})
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

// readTree reads tree ti. The first node array read sizes the arena;
// every other array must fill it exactly.
func readTree(r *jsonread.Reader, ti, numFeatures int) ([]node, error) {
	var nodes []node
	arrays := 0
	err := r.Fields(treeFields, func(field string) error {
		if nodes == nil {
			nodes = make([]node, r.ArrayLen())
		}
		i := 0
		err := r.Array(func() error {
			if i == len(nodes) {
				return fmt.Errorf("rf: tree %d has inconsistent node arrays", ti)
			}
			n := &nodes[i]
			i++
			var err error
			var v int64
			switch field {
			case "feature":
				v, err = r.Int(strconv.IntSize)
				n.feature = int(v)
			case "thresh":
				n.thresh, err = r.Float()
			case "left":
				v, err = r.Int(32)
				n.left = int32(v)
			case "right":
				v, err = r.Int(32)
				n.right = int32(v)
			default: // "value"
				n.value, err = r.Float()
			}
			return err
		})
		if err == nil && i != len(nodes) {
			err = fmt.Errorf("rf: tree %d has inconsistent node arrays", ti)
		}
		arrays++
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("rf: tree %d is empty", ti)
	}
	if arrays != len(treeFields) {
		return nil, fmt.Errorf("rf: tree %d has inconsistent node arrays", ti)
	}
	n := int32(len(nodes))
	for ni, nd := range nodes {
		if nd.feature < 0 {
			continue
		}
		if nd.feature >= numFeatures {
			return nil, fmt.Errorf("rf: tree %d node %d splits on feature %d of %d", ti, ni, nd.feature, numFeatures)
		}
		if at := int32(ni); nd.left <= at || nd.left >= n || nd.right <= at || nd.right >= n {
			return nil, fmt.Errorf("rf: tree %d node %d has out-of-range children", ti, ni)
		}
	}
	return nodes, nil
}
