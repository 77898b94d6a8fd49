package c45

import (
	"math"

	"crossfeature/internal/ml"
)

// builder grows a tree on the dataset's column-major view. It tallies
// every candidate attribute of a node from contiguous columns into one
// reused scratch table, derives each child's class histogram from the
// winning attribute's counts instead of re-scanning the child's rows, and
// partitions a node's rows into one preallocated backing array. The
// row-major oracle in the tests pins the trees it grows bit for bit.
type builder struct {
	ds      *ml.Dataset
	cols    *ml.Columns
	target  int
	classes int
	minLeaf int
	maxDept int
	// tcol is the target attribute's column.
	tcol []int32
	// cnt is the scratch contingency table (maxCard × classes), reused
	// across every attribute and node of the fit.
	cnt []int
	// cands is the candidate scratch reused across nodes.
	cands []splitCand
}

type splitCand struct {
	attr  int
	gain  float64
	ratio float64
}

func newBuilder(ds *ml.Dataset, target, minLeaf, maxDepth int) *builder {
	cols := ds.Columns()
	classes := ds.Attrs[target].Card
	maxCard := 1
	for _, at := range ds.Attrs {
		if at.Card > maxCard {
			maxCard = at.Card
		}
	}
	return &builder{
		ds:      ds,
		cols:    cols,
		target:  target,
		classes: classes,
		minLeaf: minLeaf,
		maxDept: maxDepth,
		tcol:    cols.Cols[target],
		cnt:     make([]int, maxCard*classes),
	}
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
// down from the parent's split counts rather than re-tallied. used marks
// the attributes already split on along this path (nominal attributes are
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
	col := b.cols.Cols[attr]
	tcol := b.tcol
	// One pass tallies the winner's joint histogram; its per-value blocks
	// become the children's class histograms and its sums the partition
	// sizes.
	cnt := make([]int, card*classes)
	for _, i := range rows {
		cnt[int(col[i])*classes+int(tcol[i])]++
	}
	starts := make([]int, card+1)
	for v := 0; v < card; v++ {
		size := 0
		for _, c := range cnt[v*classes : (v+1)*classes] {
			size += c
		}
		starts[v+1] = starts[v] + size
	}
	// Partition rows value-major into one backing array, preserving the
	// original row order within each value.
	next := make([]int, card)
	copy(next, starts[:card])
	backing := make([]int, len(rows))
	for _, i := range rows {
		v := int(col[i])
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

// bestSplit selects the attribute with the highest gain ratio among those
// with above-average information gain (Quinlan's gain-ratio guard). Every
// candidate attribute's joint histogram comes from one walk of its column
// (and the target's) into the shared scratch table.
func (b *builder) bestSplit(rows []int, used []bool, parentCounts []int) (int, bool) {
	baseH := ml.Entropy(parentCounts)
	total := float64(len(rows))
	classes := b.classes
	tcol := b.tcol

	cands := b.cands[:0]
	for a := range b.ds.Attrs {
		if used[a] {
			continue
		}
		card := b.ds.Attrs[a].Card
		if card < 2 {
			continue
		}
		cnt := b.cnt[:card*classes]
		for w := range cnt {
			cnt[w] = 0
		}
		col := b.cols.Cols[a]
		for _, i := range rows {
			cnt[int(col[i])*classes+int(tcol[i])]++
		}
		nonEmpty := 0
		var condH, splitH float64
		for v := 0; v < card; v++ {
			sub := cnt[v*classes : (v+1)*classes]
			size := 0
			for _, c := range sub {
				size += c
			}
			if size == 0 {
				continue
			}
			nonEmpty++
			p := float64(size) / total
			condH += p * ml.Entropy(sub)
			splitH -= p * math.Log2(p)
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
