package c45

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// flatTree is the gob wire format: nodes flattened into an array with
// child indices, because encoding/gob refuses nil pointers inside the
// Children slices of the in-memory representation.
type flatTree struct {
	Target  int
	Classes int
	Nodes   []flatNode
}

type flatNode struct {
	Attr     int
	Counts   []int
	ChildVal []int32 // attribute values with a child subtree
	ChildIdx []int32 // index of that child in Nodes
	Card     int32   // cardinality of the split attribute (children slice length)
}

// GobEncode implements gob.GobEncoder.
func (t *Tree) GobEncode() ([]byte, error) {
	ft := flatTree{Target: t.Target, Classes: t.Classes}
	var flatten func(n *Node) int32
	flatten = func(n *Node) int32 {
		idx := int32(len(ft.Nodes))
		ft.Nodes = append(ft.Nodes, flatNode{Attr: n.Attr, Counts: n.Counts, Card: int32(len(n.Children))})
		for v, ch := range n.Children {
			if ch == nil {
				continue
			}
			ci := flatten(ch)
			ft.Nodes[idx].ChildVal = append(ft.Nodes[idx].ChildVal, int32(v))
			ft.Nodes[idx].ChildIdx = append(ft.Nodes[idx].ChildIdx, ci)
		}
		return idx
	}
	if t.Root != nil {
		flatten(t.Root)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ft); err != nil {
		return nil, fmt.Errorf("c45: encode tree: %w", err)
	}
	return buf.Bytes(), nil
}

// maxSplitCard bounds the children span a decoded node may declare, so a
// corrupt payload cannot size a huge allocation before anything checks
// it. Attribute cardinalities are the discretiser's buckets + 4 (9 at the
// paper's five buckets), so a wider span would take over 4,092 buckets.
const maxSplitCard = 1 << 12

// GobDecode implements gob.GobDecoder. It rejects every encoding
// GobEncode cannot write: children spans past maxSplitCard, mismatched
// child lists, child values outside the span, and child links that are
// not to a later node (GobEncode writes preorder) or that reuse a node,
// which would make the decoded tree cyclic or shared.
func (t *Tree) GobDecode(data []byte) error {
	var ft flatTree
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ft); err != nil {
		return fmt.Errorf("c45: decode tree: %w", err)
	}
	t.Target = ft.Target
	t.Classes = ft.Classes
	if len(ft.Nodes) == 0 {
		t.Root = nil
		return nil
	}
	nodes := make([]*Node, len(ft.Nodes))
	for i := range ft.Nodes {
		fn := &ft.Nodes[i]
		if fn.Card < 0 || fn.Card > maxSplitCard || len(fn.ChildIdx) != len(fn.ChildVal) {
			return fmt.Errorf("c45: corrupt tree encoding at node %d", i)
		}
		nodes[i] = &Node{Attr: fn.Attr, Counts: fn.Counts}
		if fn.Card > 0 {
			nodes[i].Children = make([]*Node, fn.Card)
		}
	}
	linked := make([]bool, len(nodes))
	for i := range ft.Nodes {
		fn := &ft.Nodes[i]
		for k, v := range fn.ChildVal {
			ci := int(fn.ChildIdx[k])
			if v < 0 || int(v) >= len(nodes[i].Children) || ci <= i || ci >= len(nodes) || linked[ci] {
				return fmt.Errorf("c45: corrupt tree encoding at node %d", i)
			}
			linked[ci] = true
			nodes[i].Children[v] = nodes[ci]
		}
	}
	t.Root = nodes[0]
	return nil
}
