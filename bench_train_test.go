// Training-path benchmarks: learner Fit and Algorithm 1 (core.Train) on a
// synthetic dataset shaped like the paper's full-scale audit traces (140
// features, 2000 sampled records, latent-regime correlations). These run
// without a simulation so `make bench-train` isolates the learners' count
// kernels: C4.5's one-pass row-major split tallies, RIPPER's posting
// popcounts and row tallies, and Naive Bayes' column tallies, plus the
// log2 tables the C4.5 and RIPPER gains read.
package crossfeature_test

import (
	"testing"

	"crossfeature/internal/core"
	"crossfeature/internal/experiments"
	"crossfeature/internal/ml"
	"crossfeature/internal/ml/c45"
	"crossfeature/internal/ml/nbayes"
	"crossfeature/internal/ml/ripper"
)

// trainBenchDS is the shared benchmark dataset: the paper's full-scale
// trace shape (10 000 s sampled every 5 s = 2000 records).
func trainBenchDS() *ml.Dataset {
	return experiments.SyntheticAuditDataset(7, 2000)
}

// benchTarget is a representative sub-model target (an ordinary mid-schema
// traffic feature).
const benchTarget = 17

// BenchmarkC45Fit measures one C4.5 sub-model fit with the experiment
// pipeline's settings (temporal holdout pruning).
func BenchmarkC45Fit(b *testing.B) {
	ds := trainBenchDS()
	l := c45.NewLearner()
	l.HoldoutFrac = 1.0 / 3.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Fit(ds, benchTarget); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRipperFit measures one RIPPER sub-model fit.
func BenchmarkRipperFit(b *testing.B) {
	ds := trainBenchDS()
	l := ripper.NewLearner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Fit(ds, benchTarget); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNBFit measures one Naive Bayes sub-model fit.
func BenchmarkNBFit(b *testing.B) {
	ds := trainBenchDS()
	l := nbayes.NewLearner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Fit(ds, benchTarget); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreTrain measures Algorithm 1 end-to-end — L sub-models over
// the shared dataset — per base learner.
func BenchmarkCoreTrain(b *testing.B) {
	cases := []struct {
		name    string
		learner func() ml.Learner
	}{
		{"C45", func() ml.Learner {
			l := c45.NewLearner()
			l.HoldoutFrac = 1.0 / 3.0
			return l
		}},
		{"RIPPER", func() ml.Learner { return ripper.NewLearner() }},
		{"NBC", func() ml.Learner { return nbayes.NewLearner() }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			ds := trainBenchDS()
			learner := tc.learner()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Train(ds, learner, core.TrainOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
