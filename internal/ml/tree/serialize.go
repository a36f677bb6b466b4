package tree

import (
	"encoding/json"
	"fmt"
	"io"
)

// nodeJSON is the serialized form of a Node. Leaves store only the value;
// internal nodes store the split and both children.
type nodeJSON struct {
	Feature   int       `json:"f,omitempty"`
	Threshold float64   `json:"t,omitempty"`
	Value     float64   `json:"v,omitempty"`
	N         int       `json:"n,omitempty"`
	Leaf      bool      `json:"leaf,omitempty"`
	Left      *nodeJSON `json:"l,omitempty"`
	Right     *nodeJSON `json:"r,omitempty"`
}

func toJSON(n *Node) *nodeJSON {
	if n == nil {
		return nil
	}
	j := &nodeJSON{Feature: n.Feature, Threshold: n.Threshold, Value: n.Value, N: n.N, Leaf: n.Leaf}
	if !n.Leaf {
		j.Left = toJSON(n.Left)
		j.Right = toJSON(n.Right)
	}
	return j
}

func fromJSON(j *nodeJSON, dim int) (*Node, error) {
	if j == nil {
		return nil, fmt.Errorf("tree: nil node in serialized tree")
	}
	n := &Node{Feature: j.Feature, Threshold: j.Threshold, Value: j.Value, N: j.N, Leaf: j.Leaf}
	if n.Leaf {
		return n, nil
	}
	if n.Feature < 0 || n.Feature >= dim {
		return nil, fmt.Errorf("tree: split on feature %d of %d", n.Feature, dim)
	}
	var err error
	if n.Left, err = fromJSON(j.Left, dim); err != nil {
		return nil, err
	}
	if n.Right, err = fromJSON(j.Right, dim); err != nil {
		return nil, err
	}
	return n, nil
}

// Encode writes the tree as JSON.
func (n *Node) Encode(w io.Writer) error {
	return json.NewEncoder(w).Encode(toJSON(n))
}

// Decode reads a tree written by Encode for rows of dim features. A split
// on a feature outside [0, dim) is refused: Predict would index past the
// row.
func Decode(r io.Reader, dim int) (*Node, error) {
	var j nodeJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, fmt.Errorf("tree: decode: %w", err)
	}
	return fromJSON(&j, dim)
}
