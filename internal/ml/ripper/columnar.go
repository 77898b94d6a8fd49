package ripper

import (
	"math"

	"crossfeature/internal/ml"
)

// Columnar rule-induction kernels: candidate evaluation, pruning and
// recounting all reduce to AND+popcount over the dataset's posting
// bitsets. Every count equals what the row-major oracle in the tests
// tallies, so gains and metrics — and therefore the induced rule lists —
// are bit-identical.

// growRuleCols adds the condition with the best FOIL gain until the rule
// is pure on the grow set or no condition helps. The grow-set coverage is
// kept as a bitset: FOIL gain for a candidate (attr, val) needs only |cov ∧ posting| and
// |pos ∧ posting|, and accepting a condition is one AND. Once the rule's
// coverage shrinks below tallyCut the AND+popcount sweep (fixed ~card ×
// words cost per attribute regardless of coverage) loses to walking the
// covered rows directly, so the candidate counts switch to a row tally
// over the columns — the integer (p, n) pairs are the same either way,
// hence the same gains, the same accepted conditions, the same rule. The
// logarithms come from ml.Log2Tables, bit-equal to math.Log2 of the same
// ratios.
func (f *fitter) growRuleCols(cls int, grow []int) *Rule {
	l, cols, lt := f.l, f.cols, f.lt
	clsBits := cols.Postings[f.target][cls]
	cov := f.cov
	cov.Clear()
	for _, i := range grow {
		cov.Set(i)
	}
	pos := f.pos
	pos.AndInto(cov, clsBits)
	fixed := f.fixed
	for a := range fixed {
		fixed[a] = false
	}
	rule := &Rule{Class: cls}
	for {
		covn := cov.Count()
		p0 := pos.Count()
		n0 := covn - p0
		if p0 == 0 {
			return nil
		}
		if n0 == 0 {
			break // pure
		}
		if l.MaxConds > 0 && len(rule.Conds) >= l.MaxConds {
			break
		}
		bestGain := 0.0
		var best Cond
		found := false
		base := lt.Ratio(p0, p0+n0)
		if covn <= f.tallyCut {
			// Sparse coverage: materialise the covered rows once and tally
			// per-value (p, n) from the contiguous columns.
			rows := f.rowBuf[:0]
			cov.ForEach(func(i int) { rows = append(rows, i) })
			f.rowBuf = rows
			tcol := f.tcol
			for a := range f.ds.Attrs {
				if a == f.target || fixed[a] || f.ds.Attrs[a].Card < 2 {
					continue
				}
				card := f.ds.Attrs[a].Card
				pv, nv := f.pv[:card], f.nv[:card]
				for v := 0; v < card; v++ {
					pv[v], nv[v] = 0, 0
				}
				col := cols.Cols[a]
				for _, i := range rows {
					if int(tcol[i]) == cls {
						pv[col[i]]++
					} else {
						nv[col[i]]++
					}
				}
				for v := 0; v < card; v++ {
					p, n := pv[v], nv[v]
					if p == 0 {
						continue
					}
					gain := float64(p) * (lt.Ratio(p, p+n) - base)
					if gain > bestGain+1e-12 {
						bestGain = gain
						best = Cond{Attr: a, Val: v}
						found = true
					}
				}
			}
		} else {
			for a := range f.ds.Attrs {
				if a == f.target || fixed[a] || f.ds.Attrs[a].Card < 2 {
					continue
				}
				posts := cols.Postings[a]
				for v := range posts {
					p := ml.AndCount(pos, posts[v])
					if p == 0 {
						continue
					}
					n := ml.AndCount(cov, posts[v]) - p
					gain := float64(p) * (lt.Ratio(p, p+n) - base)
					if gain > bestGain+1e-12 {
						bestGain = gain
						best = Cond{Attr: a, Val: v}
						found = true
					}
				}
			}
		}
		if !found {
			break
		}
		rule.Conds = append(rule.Conds, best)
		fixed[best.Attr] = true
		cov.And(cols.Postings[best.Attr][best.Val])
		pos.And(cols.Postings[best.Attr][best.Val])
	}
	if len(rule.Conds) == 0 {
		return nil
	}
	return rule
}

// pruneRuleCols evaluates every condition prefix's pruning metric from
// incremental bitset intersections: prefix k's coverage is prefix k-1's
// ANDed with one more posting set.
func (f *fitter) pruneRuleCols(cls int, rule *Rule, prune []int) {
	k := len(rule.Conds)
	if len(prune) == 0 || k <= 1 {
		return
	}
	cols := f.cols
	clsBits := cols.Postings[f.target][cls]
	cur := f.set
	cur.Clear()
	for _, i := range prune {
		cur.Set(i)
	}
	metric := make([]float64, k+1)
	for j := 0; j <= k; j++ {
		if j > 0 {
			c := rule.Conds[j-1]
			cur.And(cols.Postings[c.Attr][c.Val])
		}
		total := cur.Count()
		if total == 0 {
			metric[j] = math.Inf(-1)
			continue
		}
		p := ml.AndCount(cur, clsBits)
		metric[j] = float64(2*p-total) / float64(total)
	}
	trimByMetric(rule, metric)
}

// coverageCols counts the rule's positives and negatives within rows.
func (f *fitter) coverageCols(cls int, rule *Rule, rows []int) (p, n int) {
	set := f.tmp
	set.Clear()
	for _, i := range rows {
		set.Set(i)
	}
	for _, c := range rule.Conds {
		set.And(f.cols.Postings[c.Attr][c.Val])
	}
	total := set.Count()
	p = ml.AndCount(set, f.cols.Postings[f.target][cls])
	return p, total - p
}

// ruleBits returns the full-dataset coverage of rule as a bitset (valid
// until the next scratch use).
func (f *fitter) ruleBits(rule *Rule) ml.Bitset {
	set := f.set
	set.CopyFrom(f.cols.Postings[rule.Conds[0].Attr][rule.Conds[0].Val])
	for _, c := range rule.Conds[1:] {
		set.And(f.cols.Postings[c.Attr][c.Val])
	}
	return set
}

// recountCols rebuilds per-rule class histograms under first-match
// semantics on the full training set, so probabilities reflect deployment
// behaviour. Each rule's first-match coverage is the still-active rows
// intersected with its condition postings, and class histograms are
// popcounts against the target's posting sets.
func (rs *RuleSet) recountCols(cols *ml.Columns) {
	active := ml.NewFullBitset(cols.NumRows)
	matched := ml.NewBitset(cols.NumRows)
	clsPosts := cols.Postings[rs.Target]
	for r := range rs.Rules {
		rule := &rs.Rules[r]
		matched.CopyFrom(active)
		for _, c := range rule.Conds {
			matched.And(cols.Postings[c.Attr][c.Val])
		}
		rule.Counts = make([]int, rs.Classes)
		for c := 0; c < rs.Classes; c++ {
			rule.Counts[c] = ml.AndCount(matched, clsPosts[c])
		}
		active.AndNot(matched)
	}
	def := make([]int, rs.Classes)
	empty := true
	for c := 0; c < rs.Classes; c++ {
		def[c] = ml.AndCount(active, clsPosts[c])
		if def[c] > 0 {
			empty = false
		}
	}
	if !empty {
		rs.Default = def
	}
}
