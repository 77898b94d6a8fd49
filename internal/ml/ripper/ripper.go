// Package ripper implements a RIPPER-style ordered rule learner (Cohen,
// "Fast Effective Rule Induction", ICML 1995): classes are handled from
// least to most frequent, rules are grown condition-by-condition to
// maximise FOIL information gain on a growing set, then pruned greedily
// against a separate pruning set, and rule addition stops when a new rule's
// error on the pruning set exceeds one half. The most frequent class
// becomes the default rule. Each rule retains its training-coverage class
// histogram so the classifier can emit calibrated probabilities for
// Algorithm 3.
package ripper

import (
	"fmt"
	"math/rand"

	"crossfeature/internal/ml"
)

// Learner configures rule induction.
type Learner struct {
	// GrowFrac is the fraction of data used for growing (the rest prunes);
	// Cohen's default is 2/3, which a value outside (0, 1) takes.
	GrowFrac float64
	// MaxConds caps conditions per rule; 0 means unbounded.
	MaxConds int
	// MaxRulesPerClass caps the rule count per class; 0 means unbounded.
	MaxRulesPerClass int
	// Seed drives the grow/prune shuffle, keeping training deterministic.
	Seed int64
}

// NewLearner returns a learner with Cohen's defaults.
func NewLearner() *Learner {
	return &Learner{GrowFrac: 2.0 / 3.0, Seed: 1}
}

// Name implements ml.Learner.
func (l *Learner) Name() string { return "RIPPER" }

// Cond is one equality test attr == val.
type Cond struct {
	Attr int
	Val  int
}

// Rule is a conjunction of conditions predicting Class, with the class
// histogram of the training instances it covers.
type Rule struct {
	Conds  []Cond
	Class  int
	Counts []int
}

// Matches reports whether the rule covers instance x.
func (r *Rule) Matches(x []int) bool {
	for _, c := range r.Conds {
		if c.Attr >= len(x) || x[c.Attr] != c.Val {
			return false
		}
	}
	return true
}

// RuleSet is a fitted ordered rule list for one target attribute.
type RuleSet struct {
	Rules   []Rule
	Default []int // class histogram backing the default rule
	Target  int
	Classes int
}

var (
	_ ml.Classifier = (*RuleSet)(nil)
	_ ml.IntoProber = (*RuleSet)(nil)
)

// Fit implements ml.Learner. Rule induction runs on the dataset's shared
// column-major view: FOIL gain for every (attribute, value) candidate
// comes from AND+popcount of the rule-coverage bitset with posting
// bitsets, and pruning evaluates all condition prefixes incrementally.
// Rows written straight into ds.X that break the schema are an error.
func (l *Learner) Fit(ds *ml.Dataset, target int) (ml.Classifier, error) {
	if target < 0 || target >= len(ds.Attrs) {
		return nil, fmt.Errorf("ripper: target %d outside schema of %d attributes", target, len(ds.Attrs))
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("ripper: empty dataset")
	}
	growFrac := l.GrowFrac
	if !(growFrac > 0 && growFrac < 1) {
		growFrac = 2.0 / 3.0
	}
	classes := ds.Attrs[target].Card
	rs := &RuleSet{Target: target, Classes: classes}
	f, err := newFitter(l, ds, target, growFrac)
	if err != nil {
		return nil, fmt.Errorf("ripper: %w", err)
	}

	// Order classes by ascending frequency; the most frequent is default.
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

	for oi := 0; oi < classes-1; oi++ {
		cls := order[oi]
		if counts[cls] == 0 {
			continue
		}
		remaining = f.coverClass(cls, remaining, rs, rng)
	}

	// Default rule: histogram of the leftovers (or global counts if empty).
	def := make([]int, classes)
	for _, i := range remaining {
		def[ds.X[i][target]]++
	}
	empty := true
	for _, c := range def {
		if c > 0 {
			empty = false
			break
		}
	}
	if empty {
		def = counts
	}
	rs.Default = def

	// Final pass: refresh every rule's coverage histogram against the full
	// ordered list semantics (first-match) on the whole training set.
	rs.recountCols(f.cols)
	return rs, nil
}

// fitter carries one fit's context and its reused bitset scratch.
type fitter struct {
	l        *Learner
	ds       *ml.Dataset
	target   int
	growFrac float64
	cols     *ml.Columns
	lt       *ml.Log2Tables
	// cov/pos hold the grow-set rule coverage and its positive subset
	// during growRuleCols; set/tmp serve pruning, coverage and filtering.
	cov, pos, set, tmp ml.Bitset
	// tcol is the target column; tallyCut is the coverage size below which
	// growRuleCols switches from popcount kernels to row tallies (the
	// popcount cost per attribute is ~card × words, the tally cost ~|cov|).
	tcol     []int32
	tallyCut int
	// rowBuf, pv, nv and fixed are growRuleCols scratch.
	rowBuf []int
	pv, nv []int
	fixed  []bool
}

func newFitter(l *Learner, ds *ml.Dataset, target int, growFrac float64) (*fitter, error) {
	cols, err := ds.Columns()
	if err != nil {
		return nil, err
	}
	maxCard, totalCard := 1, 0
	for _, at := range ds.Attrs {
		totalCard += at.Card
		if at.Card > maxCard {
			maxCard = at.Card
		}
	}
	words := (cols.NumRows + 63) / 64
	return &fitter{
		l:        l,
		ds:       ds,
		target:   target,
		growFrac: growFrac,
		cols:     cols,
		lt:       ml.Log2(),
		cov:      ml.NewBitset(cols.NumRows),
		pos:      ml.NewBitset(cols.NumRows),
		set:      ml.NewBitset(cols.NumRows),
		tmp:      ml.NewBitset(cols.NumRows),
		tcol:     cols.Cols[target],
		tallyCut: totalCard / len(ds.Attrs) * words,
		rowBuf:   make([]int, 0, cols.NumRows),
		pv:       make([]int, maxCard),
		nv:       make([]int, maxCard),
		fixed:    make([]bool, len(ds.Attrs)),
	}, nil
}

// coverClass induces rules for cls until the positives among remaining are
// covered or rule quality degrades; it returns the uncovered instances.
func (f *fitter) coverClass(cls int, remaining []int, rs *RuleSet, rng *rand.Rand) []int {
	added := 0
	for {
		pos := 0
		for _, i := range remaining {
			if int(f.tcol[i]) == cls {
				pos++
			}
		}
		if pos == 0 {
			return remaining
		}
		if f.l.MaxRulesPerClass > 0 && added >= f.l.MaxRulesPerClass {
			return remaining
		}
		grow, prune := split(remaining, f.growFrac, rng)
		rule := f.growRuleCols(cls, grow)
		if rule == nil {
			return remaining
		}
		f.pruneRuleCols(cls, rule, prune)
		// Accept only if the rule is better than chance on the prune set
		// (Cohen's stopping criterion: error rate <= 50%).
		p, n := f.coverageCols(cls, rule, prune)
		if p+n > 0 && float64(n)/float64(p+n) > 0.5 {
			return remaining
		}
		if p+n == 0 {
			// No prune data matched; fall back to the grow set estimate.
			gp, gn := f.coverageCols(cls, rule, grow)
			if gp == 0 || float64(gn)/float64(gp+gn) > 0.5 {
				return remaining
			}
		}
		rs.Rules = append(rs.Rules, *rule)
		added++
		// Remove covered instances from remaining.
		out := remaining[:0]
		rb := f.ruleBits(rule)
		for _, i := range remaining {
			if !rb.Contains(i) {
				out = append(out, i)
			}
		}
		if len(out) == len(remaining) {
			return remaining // defensive: rule covered nothing
		}
		remaining = out
	}
}

// trimByMetric greedily deletes trailing conditions while the pruning
// metric v = (p - n) / (p + n) on the prune set does not decrease.
// metric[j] is v over the prune rows matching Conds[:j], or -Inf when none
// do.
func trimByMetric(rule *Rule, metric []float64) {
	for len(rule.Conds) > 1 {
		k := len(rule.Conds)
		if metric[k-1] >= metric[k] {
			rule.Conds = rule.Conds[:k-1]
			continue
		}
		break
	}
}

// split partitions rows into grow and prune subsets after a shuffle.
func split(rows []int, growFrac float64, rng *rand.Rand) (grow, prune []int) {
	shuffled := append([]int(nil), rows...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cut := int(float64(len(shuffled)) * growFrac)
	if cut < 1 {
		cut = len(shuffled)
	}
	return shuffled[:cut], shuffled[cut:]
}

// PredictProba implements ml.Classifier: the first matching rule's
// Laplace-smoothed coverage distribution, or the default rule's.
func (rs *RuleSet) PredictProba(x []int) []float64 {
	return rs.PredictProbaInto(x, make([]float64, len(rs.Default)))
}

// PredictProbaInto implements ml.IntoProber: the first matching rule's
// (or the default's) Laplace distribution is written into out (length
// >= the target's cardinality) without allocating.
func (rs *RuleSet) PredictProbaInto(x []int, out []float64) []float64 {
	for i := range rs.Rules {
		if rs.Rules[i].Matches(x) {
			return ml.LaplaceInto(rs.Rules[i].Counts, out)
		}
	}
	return ml.LaplaceInto(rs.Default, out)
}

// NumRules reports the number of induced rules (excluding the default).
func (rs *RuleSet) NumRules() int { return len(rs.Rules) }
