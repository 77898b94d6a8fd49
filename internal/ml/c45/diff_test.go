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

// diffConfigs are the learner settings the differential test and the fuzz
// target hold Fit to the oracle under.
var diffConfigs = []*Learner{
	NewLearner(),
	{MinLeaf: 1, Prune: false},
	{MinLeaf: 5, Prune: true, CF: 0.1},
	{MinLeaf: 2, MaxDepth: 3, Prune: true, CF: 0.25},
	{MinLeaf: 2, Prune: true, CF: 0.25, HoldoutFrac: 1.0 / 3.0},
}

// checkAgainstOracle fits target of ds with Fit and with fitOracle and
// fails unless both fail or both return the same tree, predicting the
// same on every row of ds and on 20 probes drawn from rng (values up to
// one past each attribute's range, so unseen branches are probed too).
func checkAgainstOracle(t testing.TB, trial string, ds *ml.Dataset, target int, l *Learner, rng *rand.Rand) {
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
	if err := fastTree.CheckShape(ds.Attrs, target); err != nil {
		t.Fatalf("trial %s: Fit tree fails its shape check: %v", trial, err)
	}
	if !reflect.DeepEqual(ref, fastTree) {
		t.Fatalf("trial %s (target %d, learner %+v): Fit tree differs from the oracle\nref:  %+v\nfast: %+v",
			trial, target, l, ref.Root, fastTree.Root)
	}
	for _, x := range ds.X {
		if !reflect.DeepEqual(ref.PredictProba(x), fastTree.PredictProba(x)) {
			t.Fatalf("trial %s: prediction mismatch on %v", trial, x)
		}
	}
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

// TestColumnarDifferential pins Fit bit-identical to the row-major
// fitOracle: same structure, same integer histograms, same predictions,
// across randomised datasets and learner settings, and at paper scale.
func TestColumnarDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		ds := randomDataset(rng)
		checkAgainstOracle(t, fmt.Sprint(trial), ds, rng.Intn(len(ds.Attrs)), diffConfigs[trial%len(diffConfigs)], rng)
	}
	ds := paperDataset(rng)
	for i, l := range diffConfigs {
		checkAgainstOracle(t, fmt.Sprintf("paper/%d", i), ds, rng.Intn(len(ds.Attrs)), l, rng)
	}
}

// decodeFitInput reads a fuzz input as a learner setting and a small
// dataset: byte 0 picks one of diffConfigs, byte 1 the attribute count
// (2-6), one byte per attribute its cardinality (2-6), the next byte the
// target, and the rest the values row by row, each byte modulo its
// attribute's cardinality, up to 80 rows. It reports false for an input
// too short to hold a schema.
func decodeFitInput(data []byte) (l *Learner, ds *ml.Dataset, target int, ok bool) {
	if len(data) < 2 {
		return nil, nil, 0, false
	}
	l = diffConfigs[int(data[0])%len(diffConfigs)]
	nAttrs := 2 + int(data[1])%5
	data = data[2:]
	if len(data) < nAttrs+1 {
		return nil, nil, 0, false
	}
	attrs := make([]ml.Attr, nAttrs)
	for j := range attrs {
		attrs[j] = ml.Attr{Name: fmt.Sprintf("f%d", j), Card: 2 + int(data[j])%5}
	}
	target = int(data[nAttrs]) % nAttrs
	data = data[nAttrs+1:]
	ds = ml.NewDataset(attrs)
	row := make([]int, nAttrs)
	for len(data) >= nAttrs && ds.Len() < 80 {
		for j, at := range attrs {
			row[j] = int(data[j]) % at.Card
		}
		if err := ds.Add(row); err != nil {
			panic(err) // unreachable: values are reduced into range
		}
		data = data[nAttrs:]
	}
	return l, ds, target, true
}

// FuzzC45Fit holds Fit to fitOracle on fuzzed schemas and rows. The seed
// corpus runs every differential setting on a dataset with latent
// structure, so the trees it starts from have real splits.
func FuzzC45Fit(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for cfg := range diffConfigs {
		nAttrs := 2 + cfg%5
		seed := []byte{byte(cfg), byte(nAttrs - 2)}
		for j := 0; j < nAttrs; j++ {
			seed = append(seed, byte(rng.Intn(5)))
		}
		seed = append(seed, byte(rng.Intn(nAttrs)))
		for i := 0; i < 20+12*cfg; i++ {
			latent := rng.Intn(4)
			for j := 0; j < nAttrs; j++ {
				v := latent
				if rng.Float64() < 0.3 {
					v = rng.Intn(6)
				}
				seed = append(seed, byte(v))
			}
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, ds, target, ok := decodeFitInput(data)
		if !ok {
			return
		}
		checkAgainstOracle(t, "fuzz", ds, target, l, rand.New(rand.NewSource(1)))
	})
}
