package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"crossfeature/internal/ml"
	"crossfeature/internal/ml/c45"
	"crossfeature/internal/ml/nbayes"
	"crossfeature/internal/ml/ripper"
)

// fuzzRow decodes fuzz bytes into one raw event row: a sequence of signed
// varints, one feature value each, so rows take any length and any int
// value. A byte that starts no complete varint becomes one small signed
// value, so every input decodes.
func fuzzRow(data []byte) []int {
	var x []int
	for len(data) > 0 {
		v, n := binary.Varint(data)
		if n <= 0 {
			v, n = int64(int8(data[0])), 1
		}
		x = append(x, int(v))
		data = data[n:]
	}
	return x
}

// fuzzEncode is fuzzRow's inverse, for seeding the corpus.
func fuzzEncode(x []int) []byte {
	var out []byte
	for _, v := range x {
		out = binary.AppendVarint(out, int64(v))
	}
	return out
}

// FuzzScoreEvents scores one raw row of any length and any values through
// the compiled paths — ScoreEvents, Score, ScoreAll and Explain — of NBC,
// C4.5 and RIPPER analyzers, and pins every score bit-equal to the
// reference AvgMatchCount/AvgProbability and every Explain contribution
// to the sub-model's own class distribution.
func FuzzScoreEvents(f *testing.F) {
	rng := rand.New(rand.NewSource(61))
	train := compileTestDataset(rng, 300)
	var analyzers []*Analyzer
	for _, l := range []ml.Learner{nbayes.NewLearner(), c45.NewLearner(), ripper.NewLearner()} {
		a, err := Train(train, l, TrainOptions{Parallelism: 1})
		if err != nil {
			f.Fatal(err)
		}
		analyzers = append(analyzers, a)
	}

	f.Add([]byte{})
	for _, x := range train.X[:4] {
		f.Add(fuzzEncode(x))
		f.Add(fuzzEncode(x[:len(x)/2]))                     // short row
		f.Add(fuzzEncode(append(append([]int{}, x...), 3))) // over-long row
	}
	guard := make([]int, len(train.Attrs)) // every attribute's top value
	for j, at := range train.Attrs {
		guard[j] = at.Card - 1
	}
	f.Add(fuzzEncode(guard))
	f.Add(fuzzEncode([]int{-1, 1 << 40, math.MinInt64, math.MaxInt64, 0, 2, -7}))

	f.Fuzz(func(t *testing.T, data []byte) {
		x := fuzzRow(data)
		for _, a := range analyzers {
			for _, s := range []Scorer{MatchCount, Probability} {
				want := a.AvgProbability(x)
				if s == MatchCount {
					want = a.AvgMatchCount(x)
				}
				got := map[string]float64{
					"ScoreEvents": a.ScoreEvents([][]int{x}, s)[0],
					"Score":       a.Score(x, s),
					"ScoreAll":    a.ScoreAll(ml.DatasetOf(a.Attrs, [][]int{x}), s)[0],
				}
				for path, g := range got {
					if math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("%s/%v %s(%v) = %v, reference %v", a.LearnerName, s, path, x, g, want)
					}
				}
			}
			checkExplain(t, a, x)
		}
	})
}
