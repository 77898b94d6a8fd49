package nbayes

import (
	"fmt"
	"math"

	"crossfeature/internal/ml"
)

// fitOracle is the Naive Bayes fit written the direct way, the reference
// TestColumnarDifferential holds Fit to: every conditional count comes
// from walking the row-major Dataset.X.
func fitOracle(l *Learner, ds *ml.Dataset, target int) (*Model, error) {
	if target < 0 || target >= len(ds.Attrs) {
		return nil, fmt.Errorf("nbayes oracle: target %d outside schema", target)
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("nbayes oracle: empty dataset")
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
	for a := range ds.Attrs {
		if a == target {
			continue
		}
		card := ds.Attrs[a].Card
		counts := make([][]int, classes)
		for c := range counts {
			counts[c] = make([]int, card)
		}
		for _, row := range ds.X {
			counts[row[target]][row[a]]++
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
