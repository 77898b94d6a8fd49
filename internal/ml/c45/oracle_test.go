package c45

import (
	"fmt"
	"math"

	"crossfeature/internal/ml"
)

// fitOracle is C4.5 induction written the direct way, the reference
// TestColumnarDifferential holds Fit to: every node re-tallies its class
// histogram and each candidate's joint histogram from the row-major
// Dataset.X, and children get copied attribute masks and per-value row
// slices. It shares with Fit only the passes that have one
// implementation: pessimistic pruning, reduced-error pruning and
// recalibration.
func fitOracle(l *Learner, ds *ml.Dataset, target int) (*Tree, error) {
	if target < 0 || target >= len(ds.Attrs) {
		return nil, fmt.Errorf("c45 oracle: target %d outside schema", target)
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("c45 oracle: empty dataset")
	}
	minLeaf := l.MinLeaf
	if minLeaf < 1 {
		minLeaf = 2
	}
	cf := l.CF
	if !(cf > 0 && cf < 1) {
		cf = 0.25
	}
	o := &oracle{
		ds:       ds,
		target:   target,
		classes:  ds.Attrs[target].Card,
		minLeaf:  minLeaf,
		maxDepth: l.MaxDepth,
	}
	rows := make([]int, ds.Len())
	for i := range rows {
		rows[i] = i
	}
	growRows := rows
	var valRows []int
	if l.HoldoutFrac > 0 && l.HoldoutFrac < 1 {
		cut := int(float64(len(rows)) * (1 - l.HoldoutFrac))
		if cut >= 1 && cut < len(rows) {
			growRows, valRows = rows[:cut], rows[cut:]
		}
	}
	used := make([]bool, len(ds.Attrs))
	used[target] = true
	root := o.build(growRows, used, 0)
	if l.Prune {
		pruneNode(root, zFromCF(cf))
	}
	if len(valRows) > 0 {
		b := &builder{ds: ds, target: target, classes: o.classes}
		b.reducedErrorPrune(root, valRows)
		b.recalibrate(root, rows)
	}
	return &Tree{Root: root, Target: target, Classes: o.classes}, nil
}

type oracle struct {
	ds       *ml.Dataset
	target   int
	classes  int
	minLeaf  int
	maxDepth int
}

// counts tallies target classes over the given rows.
func (o *oracle) counts(rows []int) []int {
	c := make([]int, o.classes)
	for _, i := range rows {
		c[o.ds.X[i][o.target]]++
	}
	return c
}

func (o *oracle) build(rows []int, used []bool, depth int) *Node {
	counts := o.counts(rows)
	n := &Node{Attr: -1, Counts: counts}
	if pure(counts) || len(rows) < 2*o.minLeaf {
		return n
	}
	if o.maxDepth > 0 && depth >= o.maxDepth {
		return n
	}
	attr, ok := o.bestSplit(rows, used, counts)
	if !ok {
		return n
	}
	card := o.ds.Attrs[attr].Card
	parts := make([][]int, card)
	for _, i := range rows {
		v := o.ds.X[i][attr]
		parts[v] = append(parts[v], i)
	}
	n.Attr = attr
	n.Children = make([]*Node, card)
	childUsed := append([]bool(nil), used...)
	childUsed[attr] = true
	for v, part := range parts {
		if len(part) == 0 {
			continue
		}
		n.Children[v] = o.build(part, childUsed, depth+1)
	}
	return n
}

func (o *oracle) bestSplit(rows []int, used []bool, parentCounts []int) (int, bool) {
	baseH := ml.Entropy(parentCounts)
	total := float64(len(rows))
	var cands []splitCand
	for a := range o.ds.Attrs {
		if used[a] {
			continue
		}
		card := o.ds.Attrs[a].Card
		if card < 2 {
			continue
		}
		sub := make([][]int, card)
		sizes := make([]int, card)
		for _, i := range rows {
			v := o.ds.X[i][a]
			if sub[v] == nil {
				sub[v] = make([]int, o.classes)
			}
			sub[v][o.ds.X[i][o.target]]++
			sizes[v]++
		}
		nonEmpty := 0
		var condH, splitH float64
		for v := 0; v < card; v++ {
			if sizes[v] == 0 {
				continue
			}
			nonEmpty++
			p := float64(sizes[v]) / total
			condH += p * ml.Entropy(sub[v])
			// Rounded before the subtraction, as ml.Entropy rounds its
			// terms: Fit reads this product from the log2 tables.
			splitH -= float64(p * math.Log2(p))
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
		if c.gain+1e-12 >= avgGain && c.ratio > bestRatio {
			bestRatio, best = c.ratio, c.attr
		}
	}
	if best < 0 {
		// All below average (ties); take the best ratio outright.
		for _, c := range cands {
			if c.ratio > bestRatio {
				bestRatio, best = c.ratio, c.attr
			}
		}
	}
	return best, best >= 0
}
