package core

import (
	"math"
	"testing"

	"crossfeature/internal/ml"
)

// The paper's combination rules as readable pointer walks: every sub-model
// predicts its full class distribution through its own PredictProbaInto.
// They are the oracles the compiled scoring paths (Score, ScoreEvents,
// ScoreAll, Explain) are pinned bit-identical to.

// checkExplain pins Explain(x) to the oracles: both scores bit-equal to
// AvgMatchCount/AvgProbability, and one contribution per retained
// sub-model, in schema order, whose Missing, Match and Prob agree with
// that model's own PredictProbaInto.
func checkExplain(t *testing.T, a *Analyzer, x []int) {
	t.Helper()
	res := a.Explain(x)
	wantM, wantP := a.AvgMatchCount(x), a.AvgProbability(x)
	if math.Float64bits(res.MatchScore) != math.Float64bits(wantM) ||
		math.Float64bits(res.ProbScore) != math.Float64bits(wantP) {
		t.Fatalf("%s Explain(%v) scores (%v, %v), oracle (%v, %v)",
			a.LearnerName, x, res.MatchScore, res.ProbScore, wantM, wantP)
	}
	buf := make([]float64, a.maxCard())
	var want []Contribution
	for i, m := range a.Models {
		if m == nil {
			continue
		}
		c := Contribution{Index: i, Feature: a.Attrs[i].Name, Missing: a.missing(x, i)}
		if len(a.NormalMatch) == len(a.Models) {
			c.NormalMatch, c.NormalProb = a.NormalMatch[i], a.NormalProb[i]
		}
		if !c.Missing {
			p := ml.ProbaInto(m, x, buf)
			c.Match = ml.ArgMax(p) == x[i]
			if x[i] < len(p) {
				c.Prob = p[x[i]]
			}
		}
		want = append(want, c)
	}
	if len(res.Contribs) != len(want) {
		t.Fatalf("%s Explain(%v) has %d contributions, want %d", a.LearnerName, x, len(res.Contribs), len(want))
	}
	for k, c := range res.Contribs {
		if c != want[k] {
			t.Fatalf("%s Explain(%v) contribution %d = %+v, model's own distribution gives %+v",
				a.LearnerName, x, k, c, want[k])
		}
	}
}

// AvgMatchCount implements Algorithm 2 for one event. Features with a
// missing true value are excluded from the average, and the partial
// average is debiased back to the full-model scale.
func (a *Analyzer) AvgMatchCount(x []int) float64 {
	return a.avgMatchCount(x, make([]float64, a.maxCard()))
}

func (a *Analyzer) avgMatchCount(x []int, buf []float64) float64 {
	var matches, total, availLevel float64
	anyMissing := false
	for i, m := range a.Models {
		if m == nil {
			continue
		}
		if a.missing(x, i) {
			anyMissing = true
			continue
		}
		total++
		if len(a.NormalMatch) == len(a.Models) {
			availLevel += a.NormalMatch[i]
		}
		if ml.ArgMax(ml.ProbaInto(m, x, buf)) == x[i] {
			matches++
		}
	}
	if total == 0 {
		return 0
	}
	return a.debias(matches/total, availLevel, total, anyMissing, a.NormalMatch)
}

// AvgProbability implements Algorithm 3 for one event: the mean estimated
// probability p(f_i(x) | x) of the true feature values. Features with a
// missing true value are excluded from the average, and the partial
// average is debiased back to the full-model scale.
func (a *Analyzer) AvgProbability(x []int) float64 {
	return a.avgProbability(x, make([]float64, a.maxCard()))
}

func (a *Analyzer) avgProbability(x []int, buf []float64) float64 {
	var sum, total, availLevel float64
	anyMissing := false
	for i, m := range a.Models {
		if m == nil {
			continue
		}
		if a.missing(x, i) {
			anyMissing = true
			continue
		}
		total++
		if len(a.NormalProb) == len(a.Models) {
			availLevel += a.NormalProb[i]
		}
		p := ml.ProbaInto(m, x, buf)
		if v := x[i]; v >= 0 && v < len(p) {
			sum += p[v]
		}
	}
	if total == 0 {
		return 0
	}
	return a.debias(sum/total, availLevel, total, anyMissing, a.NormalProb)
}
