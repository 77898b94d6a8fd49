// Scoring-path benchmarks: the compiled kernels per base learner, end to
// end through Analyzer.ScoreAll (the whole dataset and serving-sized
// batches), single-row Analyzer.ScoreEvents and Analyzer.Explain, plus
// single sub-model predict against its flat form. Same synthetic
// full-scale dataset as the training benchmarks so `make bench-score`
// isolates inference cost.
package crossfeature_test

import (
	"fmt"
	"sync"
	"testing"

	"crossfeature/internal/core"
	"crossfeature/internal/ml"
	"crossfeature/internal/ml/c45"
	"crossfeature/internal/ml/nbayes"
	"crossfeature/internal/ml/ripper"
)

// scoreBenchModels holds one trained analyzer per base learner, shared
// across scoring benchmarks (training 140 sub-models dominates otherwise).
var scoreBenchModels struct {
	once sync.Once
	ds   *ml.Dataset
	an   map[string]*core.Analyzer
	err  error
}

func scoreBench(b *testing.B) (*ml.Dataset, map[string]*core.Analyzer) {
	b.Helper()
	m := &scoreBenchModels
	m.once.Do(func() {
		m.ds = trainBenchDS()
		m.an = make(map[string]*core.Analyzer)
		learners := map[string]ml.Learner{
			"C45": func() ml.Learner {
				l := c45.NewLearner()
				l.HoldoutFrac = 1.0 / 3.0
				return l
			}(),
			"RIPPER": ripper.NewLearner(),
			"NBC":    nbayes.NewLearner(),
		}
		for name, l := range learners {
			a, err := core.Train(m.ds, l, core.TrainOptions{})
			if err != nil {
				m.err = err
				return
			}
			m.an[name] = a
		}
	})
	if m.err != nil {
		b.Fatal(m.err)
	}
	return m.ds, m.an
}

// BenchmarkScoreAll is the compiled batch path: the whole dataset per
// call, then batches of 1, 8, 32 and 128 rows, each wrapped in a fresh
// DatasetOf as the scoring service does, so the columnar view is rebuilt
// per call and ns/rec shows where ScoreAll's row-major vs columnar
// choice pays. The whole set is scored rotated by one row: ScoreAll
// reads the scores of the training rows in their own order from Train's
// normal-level pass, without the kernels this measures.
func BenchmarkScoreAll(b *testing.B) {
	ds, an := scoreBench(b)
	whole := ml.DatasetOf(ds.Attrs, append(append([][]int(nil), ds.X[1:]...), ds.X[0]))
	for _, name := range []string{"C45", "RIPPER", "NBC"} {
		a := an[name]
		a.Compile()
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := a.ScoreAll(whole, core.Probability); len(got) != ds.Len() {
					b.Fatal("short result")
				}
			}
		})
		for _, rows := range []int{1, 8, 32, 128} {
			b.Run(fmt.Sprintf("%s/rows=%d", name, rows), func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					off := i * rows % (ds.Len() - rows)
					batch := ml.DatasetOf(ds.Attrs, ds.X[off:off+rows])
					if got := a.ScoreAll(batch, core.Probability); len(got) != rows {
						b.Fatal("short result")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/rec")
			})
		}
	}
}

// BenchmarkScoreEvents is the per-node serving shape in-process: one row
// per ScoreEvents call, cycling through the dataset's rows, so ns/op is
// the compiled cost of scoring one record with all L sub-models.
func BenchmarkScoreEvents(b *testing.B) {
	ds, an := scoreBench(b)
	for _, name := range []string{"C45", "RIPPER", "NBC"} {
		a := an[name]
		a.Compile()
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := i % ds.Len()
				if got := a.ScoreEvents(ds.X[r:r+1], core.Probability); len(got) != 1 {
					b.Fatal("short result")
				}
			}
		})
	}
}

// BenchmarkExplain is the per-feature attribution of one record, as `cfa
// serve -feature-metrics` runs it for every scored record: set against
// BenchmarkScoreEvents it prices that flag.
func BenchmarkExplain(b *testing.B) {
	ds, an := scoreBench(b)
	for _, name := range []string{"C45", "RIPPER", "NBC"} {
		a := an[name]
		a.Compile()
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := a.Explain(ds.X[i%ds.Len()]); len(res.Contribs) == 0 {
					b.Fatal("no contributions")
				}
			}
		})
	}
}

// benchSingleModel measures one sub-model's class-distribution prediction
// over every dataset row: the pointer/table reference against its
// compiled flat form.
func benchSingleModel(b *testing.B, fit func(*ml.Dataset) (ml.Classifier, error)) {
	ds := trainBenchDS()
	c, err := fit(ds)
	if err != nil {
		b.Fatal(err)
	}
	kc := c.(ml.KernelCompiler)
	buf := make([]float64, ds.Attrs[benchTarget].Card)
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range ds.X {
				ml.ProbaInto(c, x, buf)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		k := kc.CompileKernel()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, x := range ds.X {
				k.TrueScore(x, x[benchTarget], buf)
			}
		}
	})
}

// BenchmarkC45Predict compares tree pointer descent with the flat node
// array.
func BenchmarkC45Predict(b *testing.B) {
	benchSingleModel(b, func(ds *ml.Dataset) (ml.Classifier, error) {
		l := c45.NewLearner()
		l.HoldoutFrac = 1.0 / 3.0
		return l.Fit(ds, benchTarget)
	})
}

// BenchmarkRipperPredict compares the rule-list walk with the condition
// matrix scan.
func BenchmarkRipperPredict(b *testing.B) {
	benchSingleModel(b, func(ds *ml.Dataset) (ml.Classifier, error) {
		return ripper.NewLearner().Fit(ds, benchTarget)
	})
}
