package ripper

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"crossfeature/internal/ml"
)

// randomDataset builds a seeded random dataset with mixed cardinalities
// and latent structure (see the c45 differential tests for the shape).
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
// attributes, so every posting bitset spans 32 words.
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
	{GrowFrac: 0.5, Seed: 3},
	{GrowFrac: 2.0 / 3.0, Seed: 9, MaxConds: 2},
	{GrowFrac: 2.0 / 3.0, Seed: 5, MaxRulesPerClass: 1},
	{Seed: 7}, // zero GrowFrac: the 2/3 default
}

// checkAgainstOracle fits target of ds with Fit and with fitOracle and
// fails unless both fail or both return the same rule set, predicting the
// same on every row of ds and on 20 probes drawn from rng (values up to
// one past each attribute's range).
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
	fastRS := fast.(*RuleSet)
	if err := fastRS.CheckShape(ds.Attrs, target); err != nil {
		t.Fatalf("trial %s: Fit rule set fails its shape check: %v", trial, err)
	}
	if !reflect.DeepEqual(ref, fastRS) {
		t.Fatalf("trial %s (target %d, learner %+v): Fit rule set differs from the oracle\nref:  %+v\nfast: %+v",
			trial, target, l, ref, fastRS)
	}
	for _, x := range ds.X {
		if !reflect.DeepEqual(ref.PredictProba(x), fastRS.PredictProba(x)) {
			t.Fatalf("trial %s: prediction mismatch on %v", trial, x)
		}
	}
	x := make([]int, len(ds.Attrs))
	for probe := 0; probe < 20; probe++ {
		for j, at := range ds.Attrs {
			x[j] = rng.Intn(at.Card + 1)
		}
		if !reflect.DeepEqual(ref.PredictProba(x), fastRS.PredictProba(x)) {
			t.Fatalf("trial %s: prediction mismatch on %v", trial, x)
		}
	}
}

// TestColumnarDifferential pins Fit's bitset-kernel rule induction
// bit-identical to the row-major fitOracle: same rule lists in the same
// order, same coverage histograms, same predictions, across randomised
// datasets and learner settings, and at paper scale.
func TestColumnarDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1337))
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
// dataset, in the layout of the c45 fuzz target: byte 0 picks one of
// diffConfigs, byte 1 the attribute count (2-6), one byte per attribute
// its cardinality (2-6), the next byte the target, and the rest the
// values row by row, each byte modulo its attribute's cardinality, up to
// 80 rows. It reports false for an input too short to hold a schema.
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

// FuzzRipperFit holds Fit to fitOracle on fuzzed schemas and rows. The
// seed corpus runs every differential setting on a dataset with latent
// structure, so the rule lists it starts from are not empty.
func FuzzRipperFit(f *testing.F) {
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

// TestPruneRuleIncremental pins both incremental prefix-metric prunings,
// Fit's pruneRuleCols and the oracle's first-fail pruneRule, against a
// brute-force reference that rescans the prune rows for every candidate
// prefix. It is the only direct check of pruneRuleCols; the differential
// test reaches it only through whole fits.
func TestPruneRuleIncremental(t *testing.T) {
	bruteMetric := func(ds *ml.Dataset, target, cls int, conds []Cond, prune []int) float64 {
		p, n := 0, 0
	outer:
		for _, i := range prune {
			for _, c := range conds {
				if ds.X[i][c.Attr] != c.Val {
					continue outer
				}
			}
			if ds.X[i][target] == cls {
				p++
			} else {
				n++
			}
		}
		if p+n == 0 {
			return math.Inf(-1)
		}
		return float64(p-n) / float64(p+n)
	}
	brutePrune := func(ds *ml.Dataset, target, cls int, rule *Rule, prune []int) {
		if len(prune) == 0 {
			return
		}
		for len(rule.Conds) > 1 {
			cur := bruteMetric(ds, target, cls, rule.Conds, prune)
			trimmed := rule.Conds[:len(rule.Conds)-1]
			if bruteMetric(ds, target, cls, trimmed, prune) >= cur {
				rule.Conds = trimmed
				continue
			}
			break
		}
	}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		ds := randomDataset(rng)
		target := rng.Intn(len(ds.Attrs))
		cls := rng.Intn(ds.Attrs[target].Card)
		// A random rule over distinct non-target attributes.
		var conds []Cond
		for a := range ds.Attrs {
			if a == target || ds.Attrs[a].Card < 2 || rng.Intn(2) == 0 {
				continue
			}
			conds = append(conds, Cond{Attr: a, Val: rng.Intn(ds.Attrs[a].Card)})
		}
		if len(conds) == 0 {
			continue
		}
		// A random prune subset (possibly empty).
		var prune []int
		for i := 0; i < ds.Len(); i++ {
			if rng.Intn(3) != 0 {
				prune = append(prune, i)
			}
		}

		want := &Rule{Class: cls, Conds: append([]Cond(nil), conds...)}
		brutePrune(ds, target, cls, want, prune)

		got := &Rule{Class: cls, Conds: append([]Cond(nil), conds...)}
		pruneRule(ds, target, cls, got, prune)
		if !reflect.DeepEqual(got.Conds, want.Conds) {
			t.Fatalf("trial %d: oracle pruneRule diverged: got %v want %v (from %v)",
				trial, got.Conds, want.Conds, conds)
		}

		// Fit's prefix-bitset pruning must agree as well.
		f, err := newFitter(NewLearner(), ds, target, 2.0/3.0)
		if err != nil {
			t.Fatal(err)
		}
		gotCols := &Rule{Class: cls, Conds: append([]Cond(nil), conds...)}
		f.pruneRuleCols(cls, gotCols, prune)
		if !reflect.DeepEqual(gotCols.Conds, want.Conds) {
			t.Fatalf("trial %d: columnar pruneRule diverged: got %v want %v (from %v)",
				trial, gotCols.Conds, want.Conds, conds)
		}
	}
}
