package c45

import (
	"math"

	"crossfeature/internal/ml"
)

// builder grows a tree. At every node one pass over the node's rows of
// the row-major Dataset.X tallies every attribute's joint (value, class)
// histogram into one flat table reused across the fit; the winning
// attribute's block of it becomes the children's class histograms, and a
// node's rows are partitioned into one preallocated backing array. The
// entropy terms come from ml.Log2Tables. The row-major oracle in the tests
// pins the trees it grows bit for bit.
type builder struct {
	ds      *ml.Dataset
	target  int
	classes int
	minLeaf int
	maxDept int
	lt      *ml.Log2Tables
	// tcol is the target attribute's column of the dataset's view.
	tcol []int32
	// tab holds every attribute's joint histogram at the current node:
	// attribute a's block starts at off[a] and holds Card × classes cells,
	// value-major, so cell off[a] + v*classes + c counts value v of class
	// c. Its Σ Card × classes cells take at most 36 KB on the audit
	// schema.
	tab []int32
	off []int
	// cands is the candidate scratch reused across nodes.
	cands []splitCand
}

type splitCand struct {
	attr  int
	gain  float64
	ratio float64
}

func newBuilder(ds *ml.Dataset, target, minLeaf, maxDepth int) (*builder, error) {
	cols, err := ds.Columns()
	if err != nil {
		return nil, err
	}
	classes := ds.Attrs[target].Card
	off := make([]int, len(ds.Attrs))
	size := 0
	for a, at := range ds.Attrs {
		off[a] = size
		size += at.Card * classes
	}
	return &builder{
		ds:      ds,
		target:  target,
		classes: classes,
		minLeaf: minLeaf,
		maxDept: maxDepth,
		lt:      ml.Log2(),
		tcol:    cols.Cols[target],
		tab:     make([]int32, size),
		off:     off,
	}, nil
}

// tally computes the class histogram of rows from the target column.
func (b *builder) tally(rows []int) []int {
	c := make([]int, b.classes)
	for _, i := range rows {
		c[b.tcol[i]]++
	}
	return c
}

// build grows a subtree over rows whose class histogram is counts, passed
// down from the parent's table rather than re-tallied. used marks the
// attributes already split on along this path (nominal attributes are
// split at most once per path); it is toggled in place around the
// recursion instead of copied per node.
func (b *builder) build(rows []int, used []bool, depth int, counts []int) *Node {
	n := &Node{Attr: -1, Counts: counts}
	if pure(counts) || len(rows) < 2*b.minLeaf {
		return n
	}
	if b.maxDept > 0 && depth >= b.maxDept {
		return n
	}
	attr, gainOK := b.bestSplit(rows, used, counts)
	if !gainOK {
		return n
	}
	card := b.ds.Attrs[attr].Card
	classes := b.classes
	// The winner's block of the table holds the children's class
	// histograms and, summed, the partition sizes. Copy it out: the
	// children refill the table.
	block := b.tab[b.off[attr] : b.off[attr]+card*classes]
	cnt := make([]int, card*classes)
	starts := make([]int, card+1)
	for v := 0; v < card; v++ {
		size := 0
		for c := v * classes; c < (v+1)*classes; c++ {
			cnt[c] = int(block[c])
			size += cnt[c]
		}
		starts[v+1] = starts[v] + size
	}
	// Partition rows value-major into one backing array, preserving the
	// original row order within each value.
	next := make([]int, card)
	copy(next, starts[:card])
	backing := make([]int, len(rows))
	for _, i := range rows {
		v := b.ds.X[i][attr]
		backing[next[v]] = i
		next[v]++
	}
	n.Attr = attr
	n.Children = make([]*Node, card)
	used[attr] = true
	for v := 0; v < card; v++ {
		part := backing[starts[v]:starts[v+1]]
		if len(part) == 0 {
			continue // fall back to this node's counts at prediction time
		}
		n.Children[v] = b.build(part, used, depth+1, cnt[v*classes:(v+1)*classes:(v+1)*classes])
	}
	used[attr] = false
	return n
}

// fill tallies every attribute's joint histogram over rows into the
// table, one pass over the rows.
func (b *builder) fill(rows []int) {
	tab, off, classes := b.tab, b.off, b.classes
	clear(tab)
	for _, i := range rows {
		// Slicing the table at the row's class leaves one index
		// multiply-add per value.
		t := tab[b.tcol[i]:]
		x := b.ds.X[i][:len(off)]
		for a, v := range x {
			t[off[a]+v*classes]++
		}
	}
}

// bestSplit selects the attribute with the highest gain ratio among those
// with above-average information gain (Quinlan's gain-ratio guard). It
// fills the table first and evaluates the candidates in ascending
// attribute order.
func (b *builder) bestSplit(rows []int, used []bool, parentCounts []int) (int, bool) {
	b.fill(rows)
	lt := b.lt
	n := len(rows)
	baseH := entropy(lt, parentCounts, n)
	total := float64(n)
	classes := b.classes

	cands := b.cands[:0]
	for a := range b.ds.Attrs {
		if used[a] {
			continue
		}
		card := b.ds.Attrs[a].Card
		if card < 2 {
			continue
		}
		cnt := b.tab[b.off[a] : b.off[a]+card*classes]
		nonEmpty := 0
		var condH, splitH float64
		for v := 0; v < card; v++ {
			sub := cnt[v*classes : (v+1)*classes]
			size := 0
			for _, c := range sub {
				size += int(c)
			}
			if size == 0 {
				continue
			}
			nonEmpty++
			p := float64(size) / total
			condH += p * entropy(lt, sub, size)
			splitH -= lt.PLog(size, n)
		}
		if nonEmpty < 2 {
			continue
		}
		gain := baseH - condH
		if gain <= 1e-12 || splitH <= 1e-12 {
			continue
		}
		cands = append(cands, splitCand{attr: a, gain: gain, ratio: gain / splitH})
	}
	b.cands = cands
	if len(cands) == 0 {
		return 0, false
	}
	var avgGain float64
	for _, c := range cands {
		avgGain += c.gain
	}
	avgGain /= float64(len(cands))
	best := -1
	bestRatio := math.Inf(-1)
	for _, c := range cands {
		if c.gain+1e-12 < avgGain {
			continue
		}
		if c.ratio > bestRatio {
			bestRatio = c.ratio
			best = c.attr
		}
	}
	if best < 0 {
		// All below average (ties); take the best ratio outright.
		for _, c := range cands {
			if c.ratio > bestRatio {
				bestRatio = c.ratio
				best = c.attr
			}
		}
	}
	return best, best >= 0
}

// entropy is ml.Entropy of counts, which sum to n, bit for bit: each term
// comes from the log2 tables.
func entropy[T int | int32](lt *ml.Log2Tables, counts []T, n int) float64 {
	var h float64
	for _, c := range counts {
		if c != 0 {
			h -= lt.PLog(int(c), n)
		}
	}
	return h
}
