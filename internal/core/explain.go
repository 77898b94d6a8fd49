package core

import "crossfeature/internal/obs"

// Contribution is one sub-model's share of a cross-feature score: whether
// its prediction matched the feature's true value, the probability it
// assigned to that value, and the sub-model's normal in-sample levels for
// comparison. A feature whose true-value probability sits far below its
// NormalProb is a feature whose inter-feature correlation the event broke
// — the sub-model "driving" the anomaly verdict.
type Contribution struct {
	// Index is the feature's position in the analyzer's schema.
	Index int
	// Feature is the attribute name.
	Feature string
	// Missing marks a feature whose true value was unusable; such
	// features are excluded from the averages.
	Missing bool
	// Match reports whether the sub-model's prediction equals the true
	// value (Algorithm 2's 0/1 contribution).
	Match bool
	// Prob is the probability the sub-model assigned to the true value
	// (Algorithm 3's contribution).
	Prob float64
	// NormalMatch and NormalProb are the sub-model's mean levels on the
	// normal training data (zero on analyzers without recorded levels).
	NormalMatch float64
	NormalProb  float64
}

// ExplainResult decomposes both combination rules for one event.
type ExplainResult struct {
	// Contribs has one entry per retained sub-model, in schema order.
	Contribs []Contribution
	// MatchScore and ProbScore equal Score(x, MatchCount) and
	// Score(x, Probability) exactly (same debiasing of partial averages).
	MatchScore float64
	ProbScore  float64
}

// Score returns the result under the given combination rule.
func (r ExplainResult) Score(s Scorer) float64 {
	if s == MatchCount {
		return r.MatchScore
	}
	return r.ProbScore
}

// Explain scores one event while keeping every sub-model's contribution.
// It is the observable twin of Score: one pass of the same compiled
// per-event rule yields both scores, identical to Score's, and the
// contribution list that `cfa inspect -explain` and the per-feature
// metrics surface to say which sub-model drove a verdict.
func (a *Analyzer) Explain(x []int) ExplainResult {
	c := a.compiled()
	res := ExplainResult{Contribs: make([]Contribution, 0, len(a.Models))}
	res.MatchScore, res.ProbScore = a.scoreEvent(c, x, make([]float64, c.bufLen), &res.Contribs)
	return res
}

// ScoreMetrics publishes per-feature contribution distributions to an obs
// registry: how often each sub-model's prediction matches, the histogram
// of probabilities it assigns to true values, and how often its feature is
// missing. Feature names are a closed set fixed by the schema, so the
// label cardinality is bounded by the feature count.
type ScoreMetrics struct {
	checked []*obs.Counter
	matched []*obs.Counter
	missed  []*obs.Counter
	prob    []*obs.Histogram
}

// NewScoreMetrics registers the per-feature families for every retained
// sub-model of a. The prefix namespaces the families (e.g. "cfa").
func NewScoreMetrics(reg *obs.Registry, a *Analyzer, prefix string) *ScoreMetrics {
	l := len(a.Models)
	m := &ScoreMetrics{
		checked: make([]*obs.Counter, l),
		matched: make([]*obs.Counter, l),
		missed:  make([]*obs.Counter, l),
		prob:    make([]*obs.Histogram, l),
	}
	probBuckets := obs.LinearBuckets(0.05, 0.05, 19)
	for i, sub := range a.Models {
		if sub == nil {
			continue
		}
		lbl := obs.L("feature", a.Attrs[i].Name)
		m.checked[i] = reg.Counter(prefix+"_feature_checked_total",
			"Events in which this feature's sub-model contributed to the score.", lbl)
		m.matched[i] = reg.Counter(prefix+"_feature_match_total",
			"Events in which this feature's sub-model predicted the true value.", lbl)
		m.missed[i] = reg.Counter(prefix+"_feature_missing_total",
			"Events in which this feature's true value was missing.", lbl)
		m.prob[i] = reg.Histogram(prefix+"_feature_prob",
			"Probability this feature's sub-model assigned to the true value.",
			probBuckets, lbl)
	}
	return m
}

// Observe records one explained event.
func (m *ScoreMetrics) Observe(res ExplainResult) {
	for _, c := range res.Contribs {
		if c.Index >= len(m.checked) || m.checked[c.Index] == nil {
			continue
		}
		if c.Missing {
			m.missed[c.Index].Inc()
			continue
		}
		m.checked[c.Index].Inc()
		if c.Match {
			m.matched[c.Index].Inc()
		}
		m.prob[c.Index].Observe(c.Prob)
	}
}
