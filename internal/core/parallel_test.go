package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"crossfeature/internal/ml"
	"crossfeature/internal/ml/c45"
	"crossfeature/internal/ml/nbayes"
	"crossfeature/internal/ml/ripper"
)

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// rowByRow scores xs one Score call at a time.
func rowByRow(a *Analyzer, xs [][]int, s Scorer) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = a.Score(x, s)
	}
	return out
}

// partialRows counts the rows of xs that a scores with a value missing.
func partialRows(a *Analyzer, xs [][]int) int {
	n := 0
	for _, x := range xs {
		for i, m := range a.Models {
			if m != nil && a.missing(x, i) {
				n++
				break
			}
		}
	}
	return n
}

// TestRowSplitInvariance pins the row split of Train's normal-level pass
// to the serial results: under GOMAXPROCS 4, Train at Parallelism 1 and 4
// yields bit-identical NormalMatch and NormalProb, equal to the reference
// pass, and ScoreAll of the training rows, which reads the tallies the
// pass kept, equals scoring each row alone through the kernels, for every
// base learner and both scorers, on a training set within one block of
// the pass and on one spanning several rounds. The larger sets hold rows
// with a missing value, whose scores are debiased from the levels.
func TestRowSplitInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	learners := []ml.Learner{c45.NewLearner(), ripper.NewLearner(), nbayes.NewLearner()}
	for li, learner := range learners {
		// One part-filled block, and two full rounds at four workers plus a
		// part-filled third.
		for _, rows := range []int{levelBlockRows - 1, 2*4*levelRoundBlocks*levelBlockRows + 37} {
			ds := compileTestDataset(rand.New(rand.NewSource(int64(500+li))), rows)
			serial, err := Train(ds, learner, TrainOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			split, err := Train(ds, learner, TrainOptions{Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			if rows > levelBlockRows && partialRows(serial, ds.X) == 0 {
				t.Fatalf("%s %d rows: no training row has a missing value", learner.Name(), rows)
			}
			wantM, wantP := normalLevelsOracle(serial, ds)
			for _, a := range []*Analyzer{serial, split} {
				if !sameBits(a.NormalMatch, wantM) || !sameBits(a.NormalProb, wantP) {
					t.Fatalf("%s %d rows: normal levels (%v, %v), reference pass (%v, %v)",
						learner.Name(), rows, a.NormalMatch, a.NormalProb, wantM, wantP)
				}
			}
			for _, s := range []Scorer{MatchCount, Probability} {
				want := rowByRow(serial, ds.X, s)
				for name, got := range map[string][]float64{
					"serial, training set":  serial.ScoreAll(ds, s),
					"split, training set":   split.ScoreAll(ds, s),
					"split, row-major rows": split.ScoreEvents(ds.X, s),
				} {
					if !sameBits(got, want) {
						t.Fatalf("%s %d rows, %v: %s %v, row by row %v",
							learner.Name(), rows, s, name, got, want)
					}
				}
			}
		}
	}
}

// TestScoreAllConcurrentCallers scores from several goroutines at once
// through one compiled analyzer per learner: the training rows, in the
// training dataset and in one of their own, which read the normal-level
// pass's tallies, and batches of them, which the kernels score. Every
// result equals the serial one, and the race detector sees the compiled
// set and the tallies shared read-only.
func TestScoreAllConcurrentCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ds := compileTestDataset(rand.New(rand.NewSource(61)), 400)
	batches := [][][]int{ds.X, ds.X[:1], ds.X[:7], ds.X[:8], ds.X[100:228]}
	for _, learner := range []ml.Learner{c45.NewLearner(), ripper.NewLearner(), nbayes.NewLearner()} {
		a, err := Train(ds, learner, TrainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		a.Compile()
		want := make([][]float64, len(batches))
		for b, xs := range batches {
			want[b] = rowByRow(a, xs, Probability)
		}
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k <= len(batches); k++ {
					b := (g + k) % (len(batches) + 1)
					name, data := "training set", ds
					if b < len(batches) {
						name, data = "own dataset", ml.DatasetOf(ds.Attrs, batches[b])
					} else {
						b = 0
					}
					if got := a.ScoreAll(data, Probability); !sameBits(got, want[b]) {
						t.Errorf("%s goroutine %d: %d-row %s scored %v, serially %v",
							learner.Name(), g, len(batches[b]), name, got, want[b])
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// countingClassifier predicts a fixed distribution and counts its calls.
// It has no kernel, so every score it gives is a call.
type countingClassifier struct {
	probs []float64
	calls *atomic.Int64
}

func (c *countingClassifier) PredictProba([]int) []float64 {
	c.calls.Add(1)
	return c.probs
}

// countingLearner fits every feature's class prior as a
// countingClassifier sharing one counter.
type countingLearner struct{ calls *atomic.Int64 }

func (countingLearner) Name() string { return "counting" }

func (l countingLearner) Fit(ds *ml.Dataset, target int) (ml.Classifier, error) {
	probs := make([]float64, ds.Attrs[target].Card)
	for v, n := range ds.ClassCounts(target) {
		probs[v] = float64(n) / float64(ds.Len())
	}
	return &countingClassifier{probs: probs, calls: l.calls}, nil
}

// TestTrainedScoresServeScoreAll pins when ScoreAll reads the tallies
// Train's normal-level pass kept instead of calling the sub-models: for
// the training rows, in the training dataset or another one holding them,
// with no sub-model call; but not once a row is edited in place, the rows
// are reordered or grown with Add, a sub-model is masked, or a value does
// not fit the byte the rows are kept in. Every result equals scoring each
// row alone, also after the normal levels that debias partial rows change.
func TestTrainedScoresServeScoreAll(t *testing.T) {
	var calls atomic.Int64
	ds := compileTestDataset(rand.New(rand.NewSource(500)), 300)
	a, err := Train(ds, countingLearner{&calls}, TrainOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if partialRows(a, ds.X) == 0 {
		t.Fatal("no training row has a missing value")
	}
	check := func(what string, data *ml.Dataset, wantCalls bool) {
		t.Helper()
		for _, s := range []Scorer{MatchCount, Probability} {
			calls.Store(0)
			got := a.ScoreAll(data, s)
			if n := calls.Load(); (n > 0) != wantCalls {
				t.Fatalf("%s, %v: ScoreAll made %d sub-model calls", what, s, n)
			}
			if want := rowByRow(a, data.X, s); !sameBits(got, want) {
				t.Fatalf("%s, %v: ScoreAll %v, row by row %v", what, s, got, want)
			}
		}
	}
	check("training set", ds, false)
	check("same rows, own dataset", ml.DatasetOf(ds.Attrs, ds.X), false)
	rotated := append(append([][]int(nil), ds.X[1:]...), ds.X[0])
	check("rows reordered", ml.DatasetOf(ds.Attrs, rotated), true)

	// Partial rows are debiased from the levels as they are when scored.
	for i := range a.NormalProb {
		a.NormalMatch[i] *= 0.5
		a.NormalProb[i] *= 0.75
	}
	check("training set, levels changed", ds, false)

	last := ds.X[len(ds.X)-1]
	v := last[2]
	last[2] = (v + 1) % ds.Attrs[2].Card
	check("training set, a value edited in place", ds, true)
	last[2] = v
	check("training set, edit undone", ds, false)

	if err := ds.Add(ds.X[0]); err != nil {
		t.Fatal(err)
	}
	check("training set after Add", ds, true)

	if a, err = Train(ds, countingLearner{&calls}, TrainOptions{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	a.Models[1] = nil
	check("training set, sub-model masked", ds, true)

	wide := ml.NewDataset([]ml.Attr{{Name: "wide", Card: 300}, {Name: "a", Card: 3}, {Name: "b", Card: 4}})
	for r := 0; r < 40; r++ {
		if err := wide.Add([]int{r * 7 % 300, r % 3, r % 4}); err != nil {
			t.Fatal(err)
		}
	}
	if a, err = Train(wide, countingLearner{&calls}, TrainOptions{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	check("a value past a byte", wide, true)
	cut := make([][]int, len(wide.X))
	for r, x := range wide.X {
		cut[r] = []int{x[0] % 256, x[1], x[2]}
	}
	check("those rows cut to a byte", ml.DatasetOf(wide.Attrs, cut), true)
}

var errPoisoned = errors.New("poisoned sub-model")

// panicClassifier panics on every event: a sub-model with a bug.
type panicClassifier struct{}

func (panicClassifier) PredictProba([]int) []float64 { panic(errPoisoned) }

type panicLearner struct{}

func (panicLearner) Name() string { return "panic" }

func (panicLearner) Fit(*ml.Dataset, int) (ml.Classifier, error) { return panicClassifier{}, nil }

// TestWorkerPanicReachesCaller runs Train's normal-level pass on four
// workers over sub-models that panic on every row, so each worker, the
// calling goroutine and the ones it starts alike, panics on its first
// row. The panic must come out of Train on the caller's goroutine with
// its value, where a recover can catch it; one left on a started
// goroutine would crash the test binary.
func TestWorkerPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ds := compileTestDataset(rand.New(rand.NewSource(7)), 300)
	defer func() {
		if p := recover(); p != errPoisoned {
			t.Errorf("recovered %v, want the workers' %v", p, errPoisoned)
		}
	}()
	_, _ = Train(ds, panicLearner{}, TrainOptions{Parallelism: 4})
	t.Error("Train returned over panicking sub-models")
}
