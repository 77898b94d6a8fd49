package nbayes

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"crossfeature/internal/ml"
)

// randomDataset builds a seeded random dataset with mixed cardinalities
// (see the c45 differential tests for the shape).
func randomDataset(rng *rand.Rand) *ml.Dataset {
	nAttrs := 3 + rng.Intn(9)
	attrs := make([]ml.Attr, nAttrs)
	for j := range attrs {
		card := 1 + rng.Intn(6)
		attrs[j] = ml.Attr{
			Name:       fmt.Sprintf("f%d", j),
			Card:       card,
			HasUnknown: card > 2 && rng.Intn(3) == 0,
		}
	}
	ds := ml.NewDataset(attrs)
	rows := 1 + rng.Intn(300)
	row := make([]int, nAttrs)
	for i := 0; i < rows; i++ {
		latent := rng.Intn(4)
		for j, at := range attrs {
			v := latent % at.Card
			if rng.Float64() < 0.3 {
				v = rng.Intn(at.Card)
			}
			row[j] = v
		}
		if err := ds.Add(row); err != nil {
			panic(err)
		}
	}
	return ds
}

// paperDataset builds a trial at the scale of the paper's audit data
// (see the c45 differential tests for the shape): 2,000 rows of 120
// attributes.
func paperDataset(rng *rand.Rand) *ml.Dataset {
	const rows, nAttrs = 2000, 120
	attrs := make([]ml.Attr, nAttrs)
	for j := range attrs {
		card := 2 + rng.Intn(7)
		attrs[j] = ml.Attr{
			Name:       fmt.Sprintf("f%d", j),
			Card:       card,
			HasUnknown: card > 3 && rng.Intn(4) == 0,
		}
	}
	ds := ml.NewDataset(attrs)
	row := make([]int, nAttrs)
	latent := 0
	for i := 0; i < rows; i++ {
		if rng.Intn(25) == 0 {
			latent = rng.Intn(8)
		}
		for j, at := range attrs {
			v := (latent + j%3) % at.Card
			if rng.Float64() < 0.25 {
				v = rng.Intn(at.Card)
			}
			row[j] = v
		}
		if err := ds.Add(row); err != nil {
			panic(err)
		}
	}
	return ds
}

// TestColumnarDifferential pins Fit's columnar count kernel bit-identical
// to the row-major fitOracle: identical log tables (exact float equality)
// and identical predictions, across randomised datasets and at paper
// scale.
func TestColumnarDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	check := func(trial string, ds *ml.Dataset, target int, l *Learner) {
		t.Helper()
		ref, refErr := fitOracle(l, ds, target)
		fast, fastErr := l.Fit(ds, target)
		if (refErr == nil) != (fastErr == nil) {
			t.Fatalf("trial %s: error mismatch: ref=%v fast=%v", trial, refErr, fastErr)
		}
		if refErr != nil {
			return
		}
		if !reflect.DeepEqual(ref, fast.(*Model)) {
			t.Fatalf("trial %s (target %d, alpha %v): Fit model differs from the oracle", trial, target, l.Alpha)
		}
		x := make([]int, len(ds.Attrs))
		for probe := 0; probe < 20; probe++ {
			for j, at := range ds.Attrs {
				x[j] = rng.Intn(at.Card + 1)
			}
			if !reflect.DeepEqual(ref.PredictProba(x), fast.PredictProba(x)) {
				t.Fatalf("trial %s: prediction mismatch on %v", trial, x)
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		ds := randomDataset(rng)
		l := NewLearner()
		if trial%3 == 1 {
			l.Alpha = 0.5
		}
		check(fmt.Sprint(trial), ds, rng.Intn(len(ds.Attrs)), l)
	}
	ds := paperDataset(rng)
	for i, alpha := range []float64{1, 0.5} {
		check(fmt.Sprintf("paper/%d", i), ds, rng.Intn(len(ds.Attrs)), &Learner{Alpha: alpha})
	}
}
