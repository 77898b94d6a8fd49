// Package nbayes implements the Naive Bayes classifier (NBC in the paper):
// class score n(l|x) = p(l) * prod_j p(a_j | l) with Laplace smoothing,
// normalised into a posterior p(l|x) = n(l|x) / sum_k n(k|x), exactly as
// section 3 of the paper describes.
package nbayes

import (
	"fmt"
	"math"

	"crossfeature/internal/ml"
)

// Learner configures Naive Bayes fitting.
type Learner struct {
	// Alpha is the additive smoothing constant (1 = Laplace); a value that
	// is not positive and finite takes 1.
	Alpha float64
}

// NewLearner returns a Laplace-smoothed learner.
func NewLearner() *Learner { return &Learner{Alpha: 1} }

// Name implements ml.Learner.
func (l *Learner) Name() string { return "NBC" }

// Model is a fitted Naive Bayes classifier for one target attribute. All
// fields are exported so models serialise with encoding/gob.
type Model struct {
	Target int
	// LogPrior[c] is log p(c) with smoothing.
	LogPrior []float64
	// LogCond[a][c][v] is log p(attr a = v | class c); nil for the target
	// attribute itself.
	LogCond [][][]float64
}

var (
	_ ml.Classifier = (*Model)(nil)
	_ ml.IntoProber = (*Model)(nil)
)

// Fit implements ml.Learner. Conditional count tables come from the
// dataset's column-major view: each attribute's tally walks two contiguous
// int32 columns instead of hopping across row-major rows. Rows written
// straight into ds.X that break the schema are an error.
func (l *Learner) Fit(ds *ml.Dataset, target int) (ml.Classifier, error) {
	if target < 0 || target >= len(ds.Attrs) {
		return nil, fmt.Errorf("nbayes: target %d outside schema of %d attributes", target, len(ds.Attrs))
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("nbayes: empty dataset")
	}
	cols, err := ds.Columns()
	if err != nil {
		return nil, fmt.Errorf("nbayes: %w", err)
	}
	alpha := l.Alpha
	if !(alpha > 0 && alpha < math.Inf(1)) {
		alpha = 1
	}
	classes := ds.Attrs[target].Card
	m := &Model{
		Target:   target,
		LogPrior: make([]float64, classes),
		LogCond:  make([][][]float64, len(ds.Attrs)),
	}

	classCounts := ds.ClassCounts(target)
	total := float64(ds.Len())
	for c := 0; c < classes; c++ {
		m.LogPrior[c] = math.Log((float64(classCounts[c]) + alpha) / (total + alpha*float64(classes)))
	}

	tcol := cols.Cols[target]
	for a := range ds.Attrs {
		if a == target {
			continue
		}
		card := ds.Attrs[a].Card
		counts := make([][]int, classes)
		for c := range counts {
			counts[c] = make([]int, card)
		}
		for i, v := range cols.Cols[a] {
			counts[tcol[i]][v]++
		}
		tab := make([][]float64, classes)
		for c := 0; c < classes; c++ {
			tab[c] = make([]float64, card)
			den := float64(classCounts[c]) + alpha*float64(card)
			for v := 0; v < card; v++ {
				tab[c][v] = math.Log((float64(counts[c][v]) + alpha) / den)
			}
		}
		m.LogCond[a] = tab
	}
	return m, nil
}

// PredictProba implements ml.Classifier.
func (m *Model) PredictProba(x []int) []float64 {
	return m.PredictProbaInto(x, make([]float64, len(m.LogPrior)))
}

// PredictProbaInto implements ml.IntoProber, the allocation-free variant
// of PredictProba. The attribute loop is on the outside so each
// conditional table and event value is bounds-checked once rather than
// once per class; every class still accumulates its log terms in
// ascending attribute order, so the floating-point sums — and thus the
// returned probabilities — are bit-identical to the class-outer loop.
func (m *Model) PredictProbaInto(x []int, out []float64) []float64 {
	classes := len(m.LogPrior)
	out = out[:classes]
	copy(out, m.LogPrior)
	for a, tab := range m.LogCond {
		if tab == nil || a >= len(x) {
			continue
		}
		v := x[a]
		if v < 0 || len(tab) == 0 || v >= len(tab[0]) {
			continue // unseen value: contributes nothing
		}
		for c := 0; c < classes; c++ {
			out[c] += tab[c][v]
		}
	}
	softmax(out)
	return out
}

// softmax normalises per-class log scores into a posterior in place. The
// fused kernel runs this same code on each model's accumulator span, so
// both forms produce bit-identical posteriors from identical log sums.
func softmax(out []float64) {
	maxLog := math.Inf(-1)
	for _, v := range out {
		if v > maxLog {
			maxLog = v
		}
	}
	var sum float64
	for c, v := range out {
		out[c] = math.Exp(v - maxLog)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
}

// CheckShape reports whether m has exactly the table dimensions Fit
// produces when predicting attribute target over the schema attrs: one
// prior per class of the target, one (class × value) table per other
// attribute and none for the target itself. Prediction indexes the tables
// by these dimensions, so a decoded model that fails the check must not
// score (a short class row panics the lookup).
func (m *Model) CheckShape(attrs []ml.Attr, target int) error {
	switch {
	case m == nil:
		return fmt.Errorf("nbayes: nil model")
	case target < 0 || target >= len(attrs):
		return fmt.Errorf("nbayes: target %d outside schema of %d attributes", target, len(attrs))
	case m.Target != target:
		return fmt.Errorf("nbayes: model predicts attribute %d, want %d", m.Target, target)
	case len(m.LogPrior) != attrs[target].Card:
		return fmt.Errorf("nbayes: %d class priors, target %q has %d values",
			len(m.LogPrior), attrs[target].Name, attrs[target].Card)
	case len(m.LogCond) != len(attrs):
		return fmt.Errorf("nbayes: %d conditional tables, schema has %d attributes", len(m.LogCond), len(attrs))
	}
	for a, tab := range m.LogCond {
		want := len(m.LogPrior)
		if a == target {
			want = 0
		}
		if len(tab) != want {
			return fmt.Errorf("nbayes: attribute %d table has %d class rows, want %d", a, len(tab), want)
		}
		for c, row := range tab {
			if len(row) != attrs[a].Card {
				return fmt.Errorf("nbayes: attribute %d class %d row has %d values, want %d",
					a, c, len(row), attrs[a].Card)
			}
		}
	}
	return nil
}
