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

// TestColumnarDifferential pins Fit's bitset-kernel rule induction
// bit-identical to the row-major fitOracle: same rule lists in the same
// order, same coverage histograms, same predictions, across randomised
// datasets and learner settings, and at paper scale.
func TestColumnarDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1337))
	configs := []*Learner{
		NewLearner(),
		{GrowFrac: 0.5, Seed: 3},
		{GrowFrac: 2.0 / 3.0, Seed: 9, MaxConds: 2},
		{GrowFrac: 2.0 / 3.0, Seed: 5, MaxRulesPerClass: 1},
		{Seed: 7}, // zero GrowFrac: the 2/3 default
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
		fastRS := fast.(*RuleSet)
		if !reflect.DeepEqual(ref, fastRS) {
			t.Fatalf("trial %s (target %d, learner %+v): Fit rule set differs from the oracle\nref:  %+v\nfast: %+v",
				trial, target, l, ref, fastRS)
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
	for trial := 0; trial < 40; trial++ {
		ds := randomDataset(rng)
		check(fmt.Sprint(trial), ds, rng.Intn(len(ds.Attrs)), configs[trial%len(configs)])
	}
	ds := paperDataset(rng)
	for i, l := range configs {
		check(fmt.Sprintf("paper/%d", i), ds, rng.Intn(len(ds.Attrs)), l)
	}
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
		f := newFitter(NewLearner(), ds, target, 2.0/3.0)
		gotCols := &Rule{Class: cls, Conds: append([]Cond(nil), conds...)}
		f.pruneRuleCols(cls, gotCols, prune)
		if !reflect.DeepEqual(gotCols.Conds, want.Conds) {
			t.Fatalf("trial %d: columnar pruneRule diverged: got %v want %v (from %v)",
				trial, gotCols.Conds, want.Conds, conds)
		}
	}
}
