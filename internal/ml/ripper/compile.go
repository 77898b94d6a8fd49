package ripper

import "crossfeature/internal/ml"

// Compiled is the flat inference form of an ordered RuleSet: all
// conditions live in two parallel int32 arrays (a condition matrix in CSR
// layout, rule r's conditions spanning ruleOff[r]..ruleOff[r+1]), and
// every rule's Laplace-smoothed coverage distribution — plus the default
// rule's as the final row — is precomputed into one []float64 slab. Row
// evaluation is an early-exit scan over the matrix; batch evaluation
// assigns whole row sets per rule with bitset intersections over the
// dataset's posting lists. A Compiled snapshot never observes later
// mutation of the source rule set.
type Compiled struct {
	condAttr []int32
	condVal  []int32
	ruleOff  []int32 // len rules+1; rule r's conditions span [ruleOff[r], ruleOff[r+1])

	// dist holds rules+1 distribution rows (the last is the default
	// rule's); row r is dist[distOff[r]:distOff[r+1]], argmax[r] its
	// precomputed ml.ArgMax.
	dist    []float64
	distOff []int32
	argmax  []int32

	rules   int
	target  int
	classes int
	maxDlen int
}

var (
	_ ml.Classifier       = (*Compiled)(nil)
	_ ml.IntoProber       = (*Compiled)(nil)
	_ ml.ScoreKernel      = (*Compiled)(nil)
	_ ml.BatchScoreKernel = (*Compiled)(nil)
	_ ml.KernelCompiler   = (*RuleSet)(nil)
)

// Compile flattens the rule set into its condition-matrix form. The
// compiled predictions are pinned bit-identical to the rule-list walk by
// differential tests.
func (rs *RuleSet) Compile() *Compiled {
	nc := 0
	for i := range rs.Rules {
		nc += len(rs.Rules[i].Conds)
	}
	c := &Compiled{
		condAttr: make([]int32, 0, nc),
		condVal:  make([]int32, 0, nc),
		ruleOff:  make([]int32, 1, len(rs.Rules)+1),
		distOff:  make([]int32, 1, len(rs.Rules)+2),
		argmax:   make([]int32, 0, len(rs.Rules)+1),
		rules:    len(rs.Rules),
		target:   rs.Target,
		classes:  rs.Classes,
	}
	for i := range rs.Rules {
		r := &rs.Rules[i]
		for _, cd := range r.Conds {
			c.condAttr = append(c.condAttr, int32(cd.Attr))
			c.condVal = append(c.condVal, int32(cd.Val))
		}
		c.ruleOff = append(c.ruleOff, int32(len(c.condAttr)))
		c.appendDist(r.Counts)
	}
	c.appendDist(rs.Default)
	return c
}

// CompileKernel implements ml.KernelCompiler.
func (rs *RuleSet) CompileKernel() ml.ScoreKernel { return rs.Compile() }

func (c *Compiled) appendDist(counts []int) {
	off := int32(len(c.dist))
	c.dist = append(c.dist, ml.Laplace(counts)...)
	c.distOff = append(c.distOff, int32(len(c.dist)))
	c.argmax = append(c.argmax, int32(ml.ArgMax(c.dist[off:])))
	if len(counts) > c.maxDlen {
		c.maxDlen = len(counts)
	}
}

// matchRow returns the first matching rule's row index, or the default
// row c.rules — an early-exit scan mirroring Rule.Matches exactly.
func (c *Compiled) matchRow(x []int) int {
	for r := 0; r < c.rules; r++ {
		matched := true
		for ci := c.ruleOff[r]; ci < c.ruleOff[r+1]; ci++ {
			a := int(c.condAttr[ci])
			if a >= len(x) || x[a] != int(c.condVal[ci]) {
				matched = false
				break
			}
		}
		if matched {
			return r
		}
	}
	return c.rules
}

// TrueScore implements ml.ScoreKernel: one matrix scan, then two O(1)
// reads from the precomputed slab.
func (c *Compiled) TrueScore(x []int, v int, _ []float64) (p float64, match bool) {
	r := c.matchRow(x)
	off, end := c.distOff[r], c.distOff[r+1]
	if v >= 0 && int32(v) < end-off {
		p = c.dist[off+int32(v)]
	}
	return p, int32(v) == c.argmax[r]
}

// TrueScoreAll implements ml.BatchScoreKernel. First-match semantics
// vectorise over the ordered list: rule r's coverage is the AND of its
// conditions' posting bitsets restricted to rows no earlier rule claimed,
// and every covered row takes the rule's precomputed distribution row.
// Rows no rule claims take the default row.
func (c *Compiled) TrueScoreAll(ds *ml.Dataset, target int, p []float64, match []bool) {
	cols, err := ds.Columns()
	if err != nil {
		panic("ripper: TrueScoreAll on rows outside the schema: " + err.Error())
	}
	tcol := cols.Cols[target]
	unclaimed := ml.NewFullBitset(cols.NumRows)
	cov := ml.NewBitset(cols.NumRows)
	for r := 0; r <= c.rules; r++ {
		rowSet := unclaimed // the default row claims everything left
		if r < c.rules {
			cov.CopyFrom(unclaimed)
			dead := false
			for ci := c.ruleOff[r]; ci < c.ruleOff[r+1]; ci++ {
				a, v := int(c.condAttr[ci]), int(c.condVal[ci])
				if a >= len(cols.Postings) || v < 0 || v >= len(cols.Postings[a]) {
					// No row of this dataset can carry the value, so the
					// rule covers nothing — exactly the scan's outcome.
					dead = true
					break
				}
				cov.And(cols.Postings[a][v])
			}
			if dead {
				continue
			}
			rowSet = cov
		}
		d := c.dist[c.distOff[r]:c.distOff[r+1]]
		am := c.argmax[r]
		rowSet.ForEach(func(i int) {
			v := tcol[i]
			if int(v) < len(d) {
				p[i] = d[v]
			} else {
				p[i] = 0
			}
			match[i] = v == am
		})
		if r < c.rules {
			unclaimed.AndNot(cov)
		}
	}
}

// PredictProba implements ml.Classifier.
func (c *Compiled) PredictProba(x []int) []float64 {
	return c.PredictProbaInto(x, make([]float64, c.maxDlen))
}

// PredictProbaInto implements ml.IntoProber by copying the matched
// rule's precomputed distribution.
func (c *Compiled) PredictProbaInto(x []int, out []float64) []float64 {
	r := c.matchRow(x)
	off, end := c.distOff[r], c.distOff[r+1]
	out = out[:end-off]
	copy(out, c.dist[off:end])
	return out
}

// NumConds reports the condition-matrix size (total conditions across all
// rules).
func (c *Compiled) NumConds() int { return len(c.condAttr) }

// NumRules reports the compiled rule count (excluding the default).
func (c *Compiled) NumRules() int { return c.rules }
