package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crossfeature/internal/ml"
	"crossfeature/internal/ml/c45"
	"crossfeature/internal/ml/nbayes"
	"crossfeature/internal/ml/ripper"
)

// compileTestDataset builds a random correlated dataset whose schema
// includes unknown-guard attributes, so scoring exercises the
// missing-feature skip and debias paths.
func compileTestDataset(rng *rand.Rand, rows int) *ml.Dataset {
	nAttrs := 6 + rng.Intn(4)
	attrs := make([]ml.Attr, nAttrs)
	for j := range attrs {
		card := 2 + rng.Intn(5)
		attrs[j] = ml.Attr{
			Name:       fmt.Sprintf("f%d", j),
			Card:       card,
			HasUnknown: card > 2 && rng.Intn(3) == 0,
		}
	}
	ds := ml.NewDataset(attrs)
	row := make([]int, nAttrs)
	for i := 0; i < rows; i++ {
		latent := rng.Intn(5)
		for j, at := range attrs {
			v := latent % at.Card
			if rng.Float64() < 0.3 {
				v = rng.Intn(at.Card) // includes the guard bucket when present
			}
			row[j] = v
		}
		if err := ds.Add(row); err != nil {
			t := fmt.Sprintf("bad row: %v", err)
			panic(t)
		}
	}
	return ds
}

// referenceScores scores xs record by record through the oracles.
func referenceScores(a *Analyzer, xs [][]int, s Scorer) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if s == MatchCount {
			out[i] = a.AvgMatchCount(x)
		} else {
			out[i] = a.AvgProbability(x)
		}
	}
	return out
}

// TestScoreKernelDifferential trains bundles with every base learner and
// pins the compiled scoring paths — per-event Score after Compile,
// ScoreEvents, and ScoreAll over a large probe, over batches either side
// of its row-major/columnar crossover and over a batch whose
// out-of-schema row forces the row-major path — bit-identical to the
// pointer-walking reference over >1000 random records per learner,
// including guard-bucket, short, and out-of-range rows.
func TestScoreKernelDifferential(t *testing.T) {
	learners := []ml.Learner{
		c45.NewLearner(),
		&c45.Learner{MinLeaf: 2, Prune: true, CF: 0.25, HoldoutFrac: 1.0 / 3.0},
		ripper.NewLearner(),
		nbayes.NewLearner(),
	}
	for li, learner := range learners {
		rng := rand.New(rand.NewSource(int64(100 + li)))
		train := compileTestDataset(rng, 300)
		a, err := Train(train, learner, TrainOptions{Parallelism: 2})
		if err != nil {
			t.Fatalf("%s: train: %v", learner.Name(), err)
		}

		// Valid probe rows under the training schema (guard buckets
		// included), as both a Dataset and raw rows.
		probeDS := ml.NewDataset(train.Attrs)
		row := make([]int, len(train.Attrs))
		for i := 0; i < 600; i++ {
			for j, at := range train.Attrs {
				row[j] = rng.Intn(at.Card)
			}
			if err := probeDS.Add(row); err != nil {
				t.Fatal(err)
			}
		}
		// Degraded probes: short rows, negative and out-of-range values.
		degraded := make([][]int, 0, 600)
		for i := 0; i < 600; i++ {
			x := make([]int, len(train.Attrs))
			for j, at := range train.Attrs {
				x[j] = rng.Intn(at.Card+2) - 1
			}
			if i%5 == 0 {
				x = x[:rng.Intn(len(x)+1)]
			}
			degraded = append(degraded, x)
		}

		bad := append([]int(nil), probeDS.X[0]...)
		bad[0] = train.Attrs[0].Card // out of the attribute's range
		batches := [][][]int{
			probeDS.X[:1], probeDS.X[:7], probeDS.X[:8], probeDS.X[:9],
			append(probeDS.X[1:9:9], bad),
		}

		for _, s := range []Scorer{MatchCount, Probability} {
			wantValid := referenceScores(a, probeDS.X, s)
			wantDegraded := referenceScores(a, degraded, s)

			a.Compile()
			gotAll := a.ScoreAll(probeDS, s)
			gotEvents := a.ScoreEvents(degraded, s)
			for i := range wantValid {
				if gotAll[i] != wantValid[i] {
					t.Fatalf("%s/%v: ScoreAll row %d = %v, reference %v",
						learner.Name(), s, i, gotAll[i], wantValid[i])
				}
				if got := a.Score(probeDS.X[i], s); got != wantValid[i] {
					t.Fatalf("%s/%v: compiled Score row %d = %v, reference %v",
						learner.Name(), s, i, got, wantValid[i])
				}
			}
			for i := range wantDegraded {
				if gotEvents[i] != wantDegraded[i] {
					t.Fatalf("%s/%v: ScoreEvents row %d (%v) = %v, reference %v",
						learner.Name(), s, i, degraded[i], gotEvents[i], wantDegraded[i])
				}
			}
			for _, xs := range batches {
				want := referenceScores(a, xs, s)
				got := a.ScoreAll(ml.DatasetOf(train.Attrs, xs), s)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%v: ScoreAll %d-row batch row %d (%v) = %v, reference %v",
							learner.Name(), s, len(xs), i, xs[i], got[i], want[i])
					}
				}
			}
		}
	}
}

// TestCompileInvalidation is the stale-compiled-state regression test:
// swapping a sub-model (retraining) must recompile the flat forms, and a
// dataset mutated after a batch score must rescore at its new size —
// mirroring the columnar view's invalidation.
func TestCompileInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ds := compileTestDataset(rng, 200)
	a, err := Train(ds, c45.NewLearner(), TrainOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.Compile()
	gen1 := a.comp.Load()
	if gen1 == nil {
		t.Fatal("Compile left no kernel generation")
	}
	if a.comp.Load() != gen1 {
		t.Fatal("idempotent Compile rebuilt a fresh generation")
	}

	// Retrain a sub-model on different data and splice it in: the stale
	// kernels must not serve it.
	ds2 := compileTestDataset(rng, 200)
	b, err := Train(ds2, c45.NewLearner(), TrainOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.Models[0] = b.Models[0]
	probe := make([]int, len(a.Attrs))
	for j, at := range a.Attrs {
		probe[j] = rng.Intn(at.Card)
	}
	want := a.AvgProbability(probe) // reference always reads Models directly
	if got := a.Score(probe, Probability); got != want {
		t.Fatalf("Score after model swap = %v, reference %v (stale kernels?)", got, want)
	}
	if a.comp.Load() == gen1 {
		t.Fatal("model swap did not recompile the kernel generation")
	}

	// Mutating the scored dataset must be picked up by the next ScoreAll.
	before := a.ScoreAll(ds, Probability)
	row := make([]int, len(ds.Attrs))
	for j, at := range ds.Attrs {
		row[j] = rng.Intn(at.Card)
	}
	if err := ds.Add(row); err != nil {
		t.Fatal(err)
	}
	after := a.ScoreAll(ds, Probability)
	if len(after) != len(before)+1 {
		t.Fatalf("ScoreAll after Add scored %d rows, want %d", len(after), len(before)+1)
	}
	if want := a.AvgProbability(row); after[len(after)-1] != want {
		t.Fatalf("appended row scored %v, reference %v", after[len(after)-1], want)
	}
}

// priorLearner fits every feature's class prior as a fixedClassifier: a
// custom Learner whose models are values holding a slice, a type == cannot
// compare.
type priorLearner struct{}

func (priorLearner) Name() string { return "prior" }

func (priorLearner) Fit(ds *ml.Dataset, target int) (ml.Classifier, error) {
	dist := make([]float64, ds.Attrs[target].Card)
	for v, n := range ds.ClassCounts(target) {
		dist[v] = float64(n) / float64(ds.Len())
	}
	return fixedClassifier{dist}, nil
}

// TestCompileUncomparableModels is the regression test for sub-models
// whose dynamic type is not comparable: the compile cache used to compare
// them with == and panic on the first rescore (NewDetector). Such models
// never compile and score live, a same-type swap keeps the generation,
// and a swap to a compilable model recompiles.
func TestCompileUncomparableModels(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ds := compileTestDataset(rng, 200)
	a, err := Train(ds, priorLearner{}, TrainOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector(a, Probability, ds.X, 0.05)
	probe := ds.X[:20]
	check := func(stage string) {
		t.Helper()
		for _, s := range []Scorer{MatchCount, Probability} {
			want := referenceScores(a, probe, s)
			all := a.ScoreAll(ml.DatasetOf(ds.Attrs, probe), s)
			for i, x := range probe {
				if got := a.Score(x, s); got != want[i] || all[i] != want[i] {
					t.Fatalf("%s/%v: row %d Score %v, ScoreAll %v, reference %v", stage, s, i, got, all[i], want[i])
				}
			}
		}
		for _, x := range probe {
			checkExplain(t, a, x)
		}
		if got, want := d.Score(probe[0]), a.AvgProbability(probe[0]); got != want {
			t.Fatalf("%s: detector score %v, reference %v", stage, got, want)
		}
	}
	check("trained")

	gen := a.comp.Load()
	dist := make([]float64, a.Attrs[0].Card)
	dist[len(dist)-1] = 1
	a.Models[0] = fixedClassifier{dist}
	check("same-type swap")
	if a.comp.Load() != gen {
		t.Fatal("a same-type swap of an uncomparable model recompiled the kernels")
	}

	tree, err := c45.NewLearner().Fit(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.Models[1] = tree
	check("compilable swap")
	if a.comp.Load() == gen {
		t.Fatal("swapping in a compilable model did not recompile")
	}
	if st := a.Compile(); st.Models != 1 || st.TreeNodes == 0 {
		t.Fatalf("CompileStats after the swap = %+v, want the one tree compiled", st)
	}
}

// TestCompileStatsNaiveBayes pins a Naive Bayes analyzer's compiled
// footprint to the per-model formula: the fused slab holds each model's
// priors plus one (class × value) table per other attribute, no more.
func TestCompileStatsNaiveBayes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ds := compileTestDataset(rng, 200)
	a, err := Train(ds, nbayes.NewLearner(), TrainOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.Models[1] = nil // a masked slot keeps its attribute's blocks
	models, entries := 0, 0
	for i, m := range a.Models {
		if m == nil {
			continue
		}
		models++
		classes := a.Attrs[i].Card
		entries += classes
		for j, at := range a.Attrs {
			if j != i {
				entries += classes * at.Card
			}
		}
	}
	st := a.Compile()
	if st.Models != models || st.TableEntries != entries {
		t.Fatalf("CompileStats = %d models / %d entries, per-model formula %d / %d",
			st.Models, st.TableEntries, models, entries)
	}
	if st.TreeNodes != 0 || st.RuleConds != 0 {
		t.Fatalf("NB analyzer reports tree/rule footprint: %+v", st)
	}
}

// normalLevelsOracle is the reference normal-level pass: each sub-model's
// own class distribution, row by row, model by model.
func normalLevelsOracle(a *Analyzer, ds *ml.Dataset) (match, prob []float64) {
	l := len(a.Models)
	match = make([]float64, l)
	prob = make([]float64, l)
	n := float64(ds.Len())
	buf := make([]float64, a.maxCard())
	for i, m := range a.Models {
		if m == nil {
			continue
		}
		var mt, pr float64
		for _, x := range ds.X {
			p := ml.ProbaInto(m, x, buf)
			if ml.ArgMax(p) == x[i] {
				mt++
			}
			if v := x[i]; v >= 0 && v < len(p) {
				pr += p[v]
			}
		}
		match[i] = mt / n
		prob[i] = pr / n
	}
	return match, prob
}

// TestNormalLevelsMatchOracle pins the compiled normal-level pass that
// Train runs bit-equal to the reference pass, for every base learner and
// with constant-feature slots left empty.
func TestNormalLevelsMatchOracle(t *testing.T) {
	learners := []ml.Learner{c45.NewLearner(), ripper.NewLearner(), nbayes.NewLearner()}
	for li, learner := range learners {
		for _, skip := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(300 + li)))
			ds := compileTestDataset(rng, 250)
			if skip {
				// A single-valued attribute whose sub-model SkipConstant drops.
				attrs := append([]ml.Attr{{Name: "const", Card: 1}}, ds.Attrs...)
				wide := ml.NewDataset(attrs)
				for _, x := range ds.X {
					if err := wide.Add(append([]int{0}, x...)); err != nil {
						t.Fatal(err)
					}
				}
				ds = wide
			}
			a, err := Train(ds, learner, TrainOptions{Parallelism: 2, SkipConstant: skip})
			if err != nil {
				t.Fatal(err)
			}
			if skip && a.Models[0] != nil {
				t.Fatal("SkipConstant kept the constant feature's sub-model")
			}
			wantM, wantP := normalLevelsOracle(a, ds)
			for i := range wantM {
				if math.Float64bits(a.NormalMatch[i]) != math.Float64bits(wantM[i]) ||
					math.Float64bits(a.NormalProb[i]) != math.Float64bits(wantP[i]) {
					t.Fatalf("%s skip=%v model %d: levels (%v, %v), oracle (%v, %v)", learner.Name(), skip,
						i, a.NormalMatch[i], a.NormalProb[i], wantM[i], wantP[i])
				}
			}
		}
	}
}
