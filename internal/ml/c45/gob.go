package c45

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"

	"crossfeature/internal/ml"
)

// maxSplitCard bounds the children span a decoded node may declare, and
// so the children slab a header may declare per node. Attribute
// cardinalities are the discretiser's buckets + 4 (9 at the paper's five
// buckets), so a wider span would take over 4,092 buckets.
const maxSplitCard = 1 << 12

var errCorrupt = errors.New("c45: corrupt tree encoding")

// GobEncode implements gob.GobEncoder. It writes the tree in preorder,
// with no gob of its own:
//
//	byte     0
//	varint   Target, Classes
//	uvarint  node count (0 for a tree with no root), then the total
//	         length of the nodes' class counts and of their children spans
//	per node, in preorder:
//	  varint   Attr
//	  uvarint  len(Counts), then varint each count
//	  uvarint  len(Children), the split's span
//	  uvarint  how many children are non-nil; then each child as its
//	           uvarint value, ascending, followed by the child's own node
//
// No gob stream starts with a zero byte, so GobDecode tells this form from
// the flatTree gob that earlier builds wrote.
func (t *Tree) GobEncode() ([]byte, error) {
	var nodes, counts, spans int
	var size func(n *Node)
	size = func(n *Node) {
		nodes, counts, spans = nodes+1, counts+len(n.Counts), spans+len(n.Children)
		for _, ch := range n.Children {
			if ch != nil {
				size(ch)
			}
		}
	}
	if t.Root != nil {
		size(t.Root)
	}
	buf := make([]byte, 1, 16+5*nodes+2*counts)
	buf = binary.AppendVarint(buf, int64(t.Target))
	buf = binary.AppendVarint(buf, int64(t.Classes))
	buf = binary.AppendUvarint(buf, uint64(nodes))
	buf = binary.AppendUvarint(buf, uint64(counts))
	buf = binary.AppendUvarint(buf, uint64(spans))
	var node func(n *Node)
	node = func(n *Node) {
		buf = binary.AppendVarint(buf, int64(n.Attr))
		buf = binary.AppendUvarint(buf, uint64(len(n.Counts)))
		for _, c := range n.Counts {
			buf = binary.AppendVarint(buf, int64(c))
		}
		buf = binary.AppendUvarint(buf, uint64(len(n.Children)))
		kids := 0
		for _, ch := range n.Children {
			if ch != nil {
				kids++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(kids))
		for v, ch := range n.Children {
			if ch != nil {
				buf = binary.AppendUvarint(buf, uint64(v))
				node(ch)
			}
		}
	}
	if t.Root != nil {
		node(t.Root)
	}
	return buf, nil
}

// GobDecode implements gob.GobDecoder for both encodings: GobEncode's
// preorder form, and the flatTree gob of earlier builds, which every
// bundle written before it carries.
func (t *Tree) GobDecode(data []byte) error {
	if len(data) > 0 && data[0] == 0 {
		return t.decodePreorder(data[1:])
	}
	return t.decodeFlat(data)
}

// decodePreorder reads GobEncode's form into three slabs: the nodes,
// their class counts and their children spans. It rejects every encoding
// GobEncode cannot write: a children span past maxSplitCard, child values
// outside the span or not ascending (so none repeats), more or fewer
// nodes than the links reach, totals that the nodes do not add up to,
// and trailing bytes. Each node is linked once, from the node it follows
// in preorder, so the decoded tree is never shared or cyclic.
//
// A span takes no input, so the spans are cut from chunks of at most
// maxSplitCard slots, each allocated when a node needs it: a header alone
// cannot size a large allocation. A tree whose spans total at most
// maxSplitCard takes one chunk.
func (t *Tree) decodePreorder(data []byte) error {
	r := ml.NewWireReader(data)
	target, classes := r.Int(), r.Int()
	nodes := make([]Node, r.Len(4)) // attribute, counts, span, children: a byte each at least
	counts := make([]int, r.Len(1))
	spanLeft := r.Uint(len(nodes) * maxSplitCard) // declared span slots no node has taken yet
	var spans []*Node
	// open holds the ancestors of the next node that still await children.
	type open struct {
		n          *Node
		kids, last int
	}
	var stack []open
	for i := range nodes {
		n := &nodes[i]
		if i > 0 {
			if len(stack) == 0 {
				return errCorrupt
			}
			p := &stack[len(stack)-1]
			v := r.Uint(maxSplitCard)
			if v <= p.last || v >= len(p.n.Children) {
				return errCorrupt
			}
			p.n.Children[v], p.last = n, v
			if p.kids--; p.kids == 0 {
				stack = stack[:len(stack)-1]
			}
		}
		n.Attr = r.Int()
		if k := r.Len(1); k > len(counts) {
			return errCorrupt
		} else if k > 0 {
			n.Counts, counts = counts[:k:k], counts[k:]
			for c := range n.Counts {
				n.Counts[c] = r.Int()
			}
		}
		if span := r.Uint(maxSplitCard); span > spanLeft {
			return errCorrupt
		} else if span > 0 {
			if span > len(spans) {
				spans = make([]*Node, min(spanLeft, maxSplitCard))
			}
			n.Children, spans, spanLeft = spans[:span:span], spans[span:], spanLeft-span
		}
		if kids := r.Len(1); kids > 0 {
			stack = append(stack, open{n: n, kids: kids, last: -1})
		}
		if r.Failed() {
			return errCorrupt
		}
	}
	if r.Failed() || len(stack) > 0 || len(counts) > 0 || spanLeft > 0 || len(r.Rest()) > 0 {
		return errCorrupt
	}
	t.Target, t.Classes, t.Root = target, classes, nil
	if len(nodes) > 0 {
		t.Root = &nodes[0]
	}
	return nil
}

// flatTree is the gob form earlier builds wrote: nodes flattened into an
// array with child indices, because encoding/gob refuses nil pointers
// inside the Children slices of the in-memory representation. Only its
// decoder is kept, so those bundles still load.
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

// decodeFlat reads the flatTree form. It rejects every encoding the old
// encoder could not write: children spans past maxSplitCard, mismatched
// child lists, child values outside the span, and child links that are
// not to a later node (that encoder wrote preorder) or that reuse a node,
// which would make the decoded tree cyclic or shared.
func (t *Tree) decodeFlat(data []byte) error {
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
