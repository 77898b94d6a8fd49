package ripper

import (
	"fmt"
	"math"
	"math/rand"

	"crossfeature/internal/ml"
)

// fitOracle is RIPPER induction written the direct way, the reference
// TestColumnarDifferential holds Fit to. The whole class-covering loop
// runs on the row-major Dataset.X: rules grow by re-tallying every
// candidate's (p, n) over the covered rows, prune from one first-fail
// histogram over the prune rows, and the final histograms come from
// first-match walks. It shares with Fit only split, trimByMetric and
// Rule.Matches, which have one implementation.
func fitOracle(l *Learner, ds *ml.Dataset, target int) (*RuleSet, error) {
	if target < 0 || target >= len(ds.Attrs) {
		return nil, fmt.Errorf("ripper oracle: target %d outside schema", target)
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("ripper oracle: empty dataset")
	}
	growFrac := l.GrowFrac
	if !(growFrac > 0 && growFrac < 1) {
		growFrac = 2.0 / 3.0
	}
	classes := ds.Attrs[target].Card
	rs := &RuleSet{Target: target, Classes: classes}
	counts := ds.ClassCounts(target)
	order := make([]int, classes)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < classes; i++ {
		for j := i; j > 0 && counts[order[j]] < counts[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	remaining := make([]int, ds.Len())
	for i := range remaining {
		remaining[i] = i
	}
	rng := rand.New(rand.NewSource(l.Seed))
	for _, cls := range order[:classes-1] {
		if counts[cls] > 0 {
			remaining = coverClass(l, ds, target, cls, growFrac, remaining, rs, rng)
		}
	}
	def := make([]int, classes)
	for _, i := range remaining {
		def[ds.X[i][target]]++
	}
	rs.Default = counts
	for _, c := range def {
		if c > 0 {
			rs.Default = def
			break
		}
	}
	recount(rs, ds)
	return rs, nil
}

// coverClass induces rules for cls until the positives among remaining
// are covered or rule quality degrades; it returns the uncovered rows.
func coverClass(l *Learner, ds *ml.Dataset, target, cls int, growFrac float64, remaining []int, rs *RuleSet, rng *rand.Rand) []int {
	for added := 0; ; added++ {
		pos := 0
		for _, i := range remaining {
			if ds.X[i][target] == cls {
				pos++
			}
		}
		if pos == 0 || (l.MaxRulesPerClass > 0 && added >= l.MaxRulesPerClass) {
			return remaining
		}
		grow, prune := split(remaining, growFrac, rng)
		rule := growRule(l, ds, target, cls, grow)
		if rule == nil {
			return remaining
		}
		pruneRule(ds, target, cls, rule, prune)
		p, n := coverage(ds, target, cls, rule, prune)
		if p+n > 0 && float64(n)/float64(p+n) > 0.5 {
			return remaining
		}
		if p+n == 0 {
			gp, gn := coverage(ds, target, cls, rule, grow)
			if gp == 0 || float64(gn)/float64(gp+gn) > 0.5 {
				return remaining
			}
		}
		rs.Rules = append(rs.Rules, *rule)
		out := remaining[:0]
		for _, i := range remaining {
			if !rule.Matches(ds.X[i]) {
				out = append(out, i)
			}
		}
		if len(out) == len(remaining) {
			return remaining
		}
		remaining = out
	}
}

// growRule adds the condition with the best FOIL gain until the rule is
// pure on the grow set or no condition helps.
func growRule(l *Learner, ds *ml.Dataset, target, cls int, grow []int) *Rule {
	rule := &Rule{Class: cls}
	covered := append([]int(nil), grow...)
	for {
		p0, n0 := 0, 0
		for _, i := range covered {
			if ds.X[i][target] == cls {
				p0++
			} else {
				n0++
			}
		}
		if p0 == 0 {
			return nil
		}
		if n0 == 0 || (l.MaxConds > 0 && len(rule.Conds) >= l.MaxConds) {
			break
		}
		bestGain := 0.0
		var best Cond
		found := false
		base := math.Log2(float64(p0) / float64(p0+n0))
		fixed := make(map[int]bool, len(rule.Conds))
		for _, c := range rule.Conds {
			fixed[c.Attr] = true
		}
		for a := range ds.Attrs {
			if a == target || fixed[a] || ds.Attrs[a].Card < 2 {
				continue
			}
			card := ds.Attrs[a].Card
			pv := make([]int, card)
			nv := make([]int, card)
			for _, i := range covered {
				if ds.X[i][target] == cls {
					pv[ds.X[i][a]]++
				} else {
					nv[ds.X[i][a]]++
				}
			}
			for v := 0; v < card; v++ {
				p, n := pv[v], nv[v]
				if p == 0 {
					continue
				}
				gain := float64(p) * (math.Log2(float64(p)/float64(p+n)) - base)
				if gain > bestGain+1e-12 {
					bestGain, best, found = gain, Cond{Attr: a, Val: v}, true
				}
			}
		}
		if !found {
			break
		}
		rule.Conds = append(rule.Conds, best)
		out := covered[:0]
		for _, i := range covered {
			if ds.X[i][best.Attr] == best.Val {
				out = append(out, i)
			}
		}
		covered = out
	}
	if len(rule.Conds) == 0 {
		return nil
	}
	return rule
}

// pruneRule trims the rule by the pruning metric of every condition
// prefix, all taken from one pass over the prune rows: each row's first
// failing condition index is histogrammed, and a row matches the prefix
// Conds[:j] iff that index is >= j (k when it matches the whole rule).
func pruneRule(ds *ml.Dataset, target, cls int, rule *Rule, prune []int) {
	k := len(rule.Conds)
	if len(prune) == 0 || k <= 1 {
		return
	}
	posAt := make([]int, k+1)
	negAt := make([]int, k+1)
	for _, i := range prune {
		x := ds.X[i]
		fail := k
		for j, c := range rule.Conds {
			if x[c.Attr] != c.Val {
				fail = j
				break
			}
		}
		if x[target] == cls {
			posAt[fail]++
		} else {
			negAt[fail]++
		}
	}
	trimByMetric(rule, prefixMetrics(posAt, negAt))
}

// prefixMetrics converts first-fail histograms into the pruning metric of
// every condition prefix, as suffix sums.
func prefixMetrics(posAt, negAt []int) []float64 {
	metric := make([]float64, len(posAt))
	p, n := 0, 0
	for j := len(posAt) - 1; j >= 0; j-- {
		p += posAt[j]
		n += negAt[j]
		if p+n == 0 {
			metric[j] = math.Inf(-1)
		} else {
			metric[j] = float64(p-n) / float64(p+n)
		}
	}
	return metric
}

// coverage counts positives and negatives the rule matches within rows.
func coverage(ds *ml.Dataset, target, cls int, rule *Rule, rows []int) (p, n int) {
	for _, i := range rows {
		if !rule.Matches(ds.X[i]) {
			continue
		}
		if ds.X[i][target] == cls {
			p++
		} else {
			n++
		}
	}
	return p, n
}

// recount rebuilds per-rule class histograms under first-match semantics
// on the full training set.
func recount(rs *RuleSet, ds *ml.Dataset) {
	for r := range rs.Rules {
		rs.Rules[r].Counts = make([]int, rs.Classes)
	}
	def := make([]int, rs.Classes)
	unmatched := 0
	for _, x := range ds.X {
		cls := x[rs.Target]
		hit := false
		for r := range rs.Rules {
			if rs.Rules[r].Matches(x) {
				rs.Rules[r].Counts[cls]++
				hit = true
				break
			}
		}
		if !hit {
			def[cls]++
			unmatched++
		}
	}
	if unmatched > 0 {
		rs.Default = def
	}
}
