package c45

import "crossfeature/internal/ml"

// Compiled is the flat inference form of a Tree: every node lives in one
// contiguous array descended by index instead of pointer, child links are
// int32 indexes in a shared span table, and each node's Laplace-smoothed
// class distribution is precomputed into a single []float64 slab (the
// per-prediction LaplaceInto of the pointer walk becomes one lookup).
// A Compiled snapshot never observes later mutation of the source tree.
type Compiled struct {
	nodes []cnode
	// kids holds child node indexes, -1 for an absent branch; node n's
	// children occupy kids[n.kids : n.kids+n.card].
	kids []int32
	// dist is the distribution slab; node n's Laplace distribution is
	// dist[n.dist : n.dist+n.dlen].
	dist []float64

	target  int
	classes int
	maxDlen int
}

// cnode is one flattened tree node; 24 bytes, preorder layout.
type cnode struct {
	attr   int32 // split attribute, -1 for a leaf
	kids   int32 // offset of the children span in Compiled.kids
	card   int32 // children span length (the split attribute's cardinality)
	dist   int32 // offset of this node's distribution in Compiled.dist
	dlen   int32 // distribution length (the target's cardinality)
	argmax int32 // ml.ArgMax of the distribution, precomputed
}

var (
	_ ml.Classifier       = (*Compiled)(nil)
	_ ml.IntoProber       = (*Compiled)(nil)
	_ ml.ScoreKernel      = (*Compiled)(nil)
	_ ml.BatchScoreKernel = (*Compiled)(nil)
	_ ml.KernelCompiler   = (*Tree)(nil)
)

// Compile flattens the tree into its contiguous inference form. The
// compiled predictions are pinned bit-identical to the pointer walk by
// differential tests.
func (t *Tree) Compile() *Compiled {
	n := nodeCount(t.Root)
	c := &Compiled{
		nodes:   make([]cnode, 0, n),
		dist:    make([]float64, 0, n*t.Classes),
		target:  t.Target,
		classes: t.Classes,
	}
	if t.Root != nil {
		c.flatten(t.Root)
	}
	return c
}

// CompileKernel implements ml.KernelCompiler.
func (t *Tree) CompileKernel() ml.ScoreKernel { return t.Compile() }

// flatten appends n's subtree in preorder and returns n's index. The
// children span is reserved before recursing so each node's child indexes
// stay contiguous.
func (c *Compiled) flatten(n *Node) int32 {
	idx := int32(len(c.nodes))
	d := ml.Laplace(n.Counts)
	if len(d) > c.maxDlen {
		c.maxDlen = len(d)
	}
	c.nodes = append(c.nodes, cnode{
		attr:   -1,
		dist:   int32(len(c.dist)),
		dlen:   int32(len(d)),
		argmax: int32(ml.ArgMax(d)),
	})
	c.dist = append(c.dist, d...)
	if n.Attr >= 0 {
		off := int32(len(c.kids))
		c.nodes[idx].attr = int32(n.Attr)
		c.nodes[idx].kids = off
		c.nodes[idx].card = int32(len(n.Children))
		for range n.Children {
			c.kids = append(c.kids, -1)
		}
		for v, ch := range n.Children {
			if ch != nil {
				c.kids[off+int32(v)] = c.flatten(ch)
			}
		}
	}
	return idx
}

// descend walks the flat array with the exact fallback rules of
// Tree.PredictProbaInto: stop at a leaf, at a value outside the split's
// children, or at an absent branch, and answer from the deepest node
// reached.
func (c *Compiled) descend(x []int) *cnode {
	nd := &c.nodes[0]
	for nd.attr >= 0 {
		v := -1
		if int(nd.attr) < len(x) {
			v = x[nd.attr]
		}
		if v < 0 || v >= int(nd.card) {
			break
		}
		kid := c.kids[nd.kids+int32(v)]
		if kid < 0 {
			break
		}
		nd = &c.nodes[kid]
	}
	return nd
}

// TrueScore implements ml.ScoreKernel: one index-based descent, then two
// O(1) reads from the precomputed slab.
func (c *Compiled) TrueScore(x []int, v int, _ []float64) (p float64, match bool) {
	if len(c.nodes) == 0 {
		return 0, false
	}
	nd := c.descend(x)
	if v >= 0 && int32(v) < nd.dlen {
		p = c.dist[nd.dist+int32(v)]
	}
	return p, int32(v) == nd.argmax
}

// TrueScoreAll implements ml.BatchScoreKernel. Instead of one descent
// per row, the whole row set flows down the tree as a bitset: a branch's
// row set is its parent's ANDed with the split value's posting list, so
// each tree edge costs one word-wise intersection over the dataset
// instead of a node visit per covered row. Rows no branch claims — a
// value outside the split's children or an absent child — stop at that
// node, exactly the scalar descent's fallback, and every node answers
// for its stopped rows from the precomputed slab.
func (c *Compiled) TrueScoreAll(ds *ml.Dataset, target int, p []float64, match []bool) {
	cols, err := ds.Columns()
	if err != nil {
		panic("c45: TrueScoreAll on rows outside the schema: " + err.Error())
	}
	n := cols.NumRows
	if len(c.nodes) == 0 {
		for i := 0; i < n; i++ {
			p[i], match[i] = 0, false
		}
		return
	}
	tcol := cols.Cols[target]
	emit := func(nd *cnode, rows ml.Bitset) {
		d := c.dist[nd.dist : nd.dist+nd.dlen]
		am := nd.argmax
		rows.ForEach(func(i int) {
			v := tcol[i]
			if int(v) < len(d) {
				p[i] = d[v]
			} else {
				p[i] = 0
			}
			match[i] = v == am
		})
	}
	// Two scratch bitsets per tree depth: one accumulating the rows that
	// stop at the current node, one carrying a branch's row set into the
	// recursion (reused by the next sibling once it returns).
	var stop, reach []ml.Bitset
	scratch := func(pool *[]ml.Bitset, d int) ml.Bitset {
		for len(*pool) <= d {
			*pool = append(*pool, ml.NewBitset(n))
		}
		return (*pool)[d]
	}
	var walk func(ni int32, rows ml.Bitset, depth int)
	walk = func(ni int32, rows ml.Bitset, depth int) {
		nd := &c.nodes[ni]
		if nd.attr < 0 || int(nd.attr) >= len(cols.Postings) {
			emit(nd, rows)
			return
		}
		post := cols.Postings[nd.attr]
		stopped := scratch(&stop, depth)
		stopped.CopyFrom(rows)
		for v := 0; v < int(nd.card); v++ {
			kid := c.kids[nd.kids+int32(v)]
			if kid < 0 || v >= len(post) {
				continue // rows carrying v (if any) stop here
			}
			br := scratch(&reach, depth)
			br.AndInto(rows, post[v])
			if br.Count() == 0 {
				continue
			}
			stopped.AndNot(br)
			walk(kid, br, depth+1)
		}
		emit(nd, stopped)
	}
	walk(0, ml.NewFullBitset(n), 0)
}

// PredictProba implements ml.Classifier.
func (c *Compiled) PredictProba(x []int) []float64 {
	return c.PredictProbaInto(x, make([]float64, c.maxDlen))
}

// PredictProbaInto implements ml.IntoProber by copying the reached node's
// precomputed distribution.
func (c *Compiled) PredictProbaInto(x []int, out []float64) []float64 {
	if len(c.nodes) == 0 {
		return out[:0]
	}
	nd := c.descend(x)
	out = out[:nd.dlen]
	copy(out, c.dist[nd.dist:nd.dist+nd.dlen])
	return out
}

// NumNodes reports the flattened node count.
func (c *Compiled) NumNodes() int { return len(c.nodes) }
