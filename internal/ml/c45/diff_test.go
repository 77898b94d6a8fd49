package c45

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"crossfeature/internal/ml"
)

// randomDataset builds a seeded random dataset with a mix of cardinalities
// (including constant card-1 attributes and unknown-flagged ones) and
// latent structure so trees have real splits to find.
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

// paperDataset builds a trial at the scale of the paper's audit data:
// 2,000 rows of 120 attributes, so every posting bitset spans 32 words. A
// latent regime persists across runs of rows, as it does in audit traces,
// and each attribute reads it through its own offset plus noise, so
// attributes predict one another and trees grow deep.
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

// TestColumnarDifferential pins Fit bit-identical to the row-major
// fitOracle: same structure, same integer histograms, same predictions,
// across randomised datasets and learner settings, and at paper scale.
func TestColumnarDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	configs := []*Learner{
		NewLearner(),
		{MinLeaf: 1, Prune: false},
		{MinLeaf: 5, Prune: true, CF: 0.1},
		{MinLeaf: 2, MaxDepth: 3, Prune: true, CF: 0.25},
		{MinLeaf: 2, Prune: true, CF: 0.25, HoldoutFrac: 1.0 / 3.0},
	}
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
		fastTree := fast.(*Tree)
		if !reflect.DeepEqual(ref, fastTree) {
			t.Fatalf("trial %s (target %d, learner %+v): Fit tree differs from the oracle\nref:  %+v\nfast: %+v",
				trial, target, l, ref.Root, fastTree.Root)
		}
		// Predictions must agree bit-for-bit too (including unseen branches).
		x := make([]int, len(ds.Attrs))
		for probe := 0; probe < 20; probe++ {
			for j, at := range ds.Attrs {
				x[j] = rng.Intn(at.Card + 1) // may exceed the schema range
			}
			if !reflect.DeepEqual(ref.PredictProba(x), fastTree.PredictProba(x)) {
				t.Fatalf("trial %s: prediction mismatch on %v", trial, x)
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		ds := randomDataset(rng)
		check(fmt.Sprint(trial), ds, rng.Intn(len(ds.Attrs)), configs[trial%len(configs)])
	}
	ds := paperDataset(rng)
	for i, l := range configs {
		check(fmt.Sprintf("paper/%d", i), ds, rng.Intn(len(ds.Attrs)), l)
	}
}
