package nbayes

import (
	"math"
	"math/rand"
	"testing"

	"crossfeature/internal/ml"
)

// fitEnsemble fits one model per attribute of ds, leaving each slot nil
// (masked) with probability maskP.
func fitEnsemble(t *testing.T, rng *rand.Rand, l *Learner, ds *ml.Dataset, maskP float64) []ml.Classifier {
	t.Helper()
	models := make([]ml.Classifier, len(ds.Attrs))
	for i := range models {
		if rng.Float64() < maskP {
			continue
		}
		c, err := l.Fit(ds, i)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = c
	}
	return models
}

// perModelEntries is the table size of the models taken one by one: each
// model's priors plus one (class × value) table per other attribute.
func perModelEntries(attrs []ml.Attr, models []ml.Classifier) (n, entries int) {
	for i, c := range models {
		if c == nil {
			continue
		}
		n++
		classes := attrs[i].Card
		entries += classes
		for a, at := range attrs {
			if a != i {
				entries += classes * at.Card
			}
		}
	}
	return n, entries
}

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

// TestCompiledDifferential pins the fused attribute-major slab bit-identical
// to every model's own PredictProbaInto: random schemas (guard buckets
// included), smoothing constants and masked slots, probed with in-range,
// negative, out-of-range, short and over-long rows. It also pins the
// fused footprint to the models' own table sizes.
func TestCompiledDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	configs := []*Learner{
		NewLearner(),
		{Alpha: 0.5},
		{Alpha: 2},
		{Alpha: 0.01},
	}
	fusedTrials := 0
	for trial := 0; trial < 60; trial++ {
		ds := randomDataset(rng)
		maskP := 0.0
		if trial%2 == 1 {
			maskP = 0.3
		}
		models := fitEnsemble(t, rng, configs[trial%len(configs)], ds, maskP)
		f := Fuse(ds.Attrs, models)
		n, entries := perModelEntries(ds.Attrs, models)
		if n == 0 {
			if f != nil {
				t.Fatalf("trial %d: fused an ensemble with every slot masked", trial)
			}
			continue
		}
		if f == nil {
			t.Fatalf("trial %d: Fuse refused a fitted ensemble", trial)
		}
		fusedTrials++
		if f.NumModels() != n || f.NumEntries() != entries {
			t.Fatalf("trial %d: fused %d models / %d entries, per-model forms hold %d / %d",
				trial, f.NumModels(), f.NumEntries(), n, entries)
		}

		raw := make([]float64, f.Width())
		acc := make([]float64, f.Width())
		refBuf := make([]float64, 8)
		x := make([]int, len(ds.Attrs)+3)
		for probe := 0; probe < 40; probe++ {
			for j := range x {
				card := 4
				if j < len(ds.Attrs) {
					card = ds.Attrs[j].Card
				}
				x[j] = rng.Intn(card+3) - 1 // strays below and above the range
			}
			px := x[:len(ds.Attrs)]
			switch probe % 7 {
			case 0:
				px = x[:rng.Intn(len(ds.Attrs)+1)] // short (degraded) row
			case 1:
				px = x // over-long row
			}
			f.Accumulate(px, raw)
			for m, c := range models {
				if c == nil {
					continue
				}
				ref := c.(*Model).PredictProbaInto(px, refBuf)
				copy(acc, raw)
				if got := f.Posterior(acc, m); !sameBits(got, ref) {
					t.Fatalf("trial %d model %d: posterior on %v = %v, model %v", trial, m, px, got, ref)
				}
				for v := 0; v <= len(ref); v++ { // one past the class range on purpose
					wantP := 0.0
					if v < len(ref) {
						wantP = ref[v]
					}
					copy(acc, raw)
					p, match := f.TrueScore(acc, m, v)
					if math.Float64bits(p) != math.Float64bits(wantP) || match != (ml.ArgMax(ref) == v) {
						t.Fatalf("trial %d model %d: TrueScore(%v, %d) = (%v,%v), model %v",
							trial, m, px, v, p, match, ref)
					}
				}
			}
		}
	}
	if fusedTrials < 30 {
		t.Fatalf("only %d of 60 trials fused an ensemble", fusedTrials)
	}
}

// stubClassifier is a non-Naive-Bayes sub-model.
type stubClassifier struct{}

func (stubClassifier) PredictProba([]int) []float64 { return []float64{1} }

func cloneModel(m *Model) *Model {
	c := &Model{Target: m.Target, LogPrior: append([]float64(nil), m.LogPrior...)}
	c.LogCond = make([][][]float64, len(m.LogCond))
	for a, tab := range m.LogCond {
		if tab == nil {
			continue
		}
		c.LogCond[a] = make([][]float64, len(tab))
		for k, row := range tab {
			c.LogCond[a][k] = append([]float64(nil), row...)
		}
	}
	return c
}

// TestFuseRejectsMisshapes pins that every mis-shaped ensemble makes Fuse
// return nil, not panic, and that CheckShape names each bad model.
func TestFuseRejectsMisshapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := buildDataset(t, []int{3, 2, 4}, nil)
	row := make([]int, 3)
	for i := 0; i < 60; i++ {
		for j, at := range ds.Attrs {
			row[j] = rng.Intn(at.Card)
		}
		if err := ds.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	models := fitEnsemble(t, rng, NewLearner(), ds, 0)
	if Fuse(ds.Attrs, models) == nil {
		t.Fatal("Fuse refused a well-shaped ensemble")
	}
	// Each case damages model 1 (target attribute 1, 2 classes).
	cases := map[string]func(m *Model){
		"wrong target":       func(m *Model) { m.Target = 2 },
		"short prior":        func(m *Model) { m.LogPrior = m.LogPrior[:1] },
		"long prior":         func(m *Model) { m.LogPrior = append(m.LogPrior, 0) },
		"missing table":      func(m *Model) { m.LogCond = m.LogCond[:2] },
		"extra table":        func(m *Model) { m.LogCond = append(m.LogCond, nil) },
		"own-target table":   func(m *Model) { m.LogCond[1] = [][]float64{{0, 0}, {0, 0}} },
		"class row short":    func(m *Model) { m.LogCond[0] = m.LogCond[0][:1] },
		"class row long":     func(m *Model) { m.LogCond[2] = append(m.LogCond[2], make([]float64, 4)) },
		"value row short":    func(m *Model) { m.LogCond[2][1] = m.LogCond[2][1][:3] },
		"value row long":     func(m *Model) { m.LogCond[0][0] = append(m.LogCond[0][0], 0) },
		"absent other table": func(m *Model) { m.LogCond[2] = nil },
		"negative target":    func(m *Model) { m.Target = -1 },
	}
	for name, damage := range cases {
		bad := cloneModel(models[1].(*Model))
		damage(bad)
		if bad.CheckShape(ds.Attrs, 1) == nil {
			t.Errorf("%s: CheckShape accepted the model", name)
		}
		mixed := append([]ml.Classifier(nil), models...)
		mixed[1] = bad
		if Fuse(ds.Attrs, mixed) != nil {
			t.Errorf("%s: Fuse accepted the ensemble", name)
		}
	}
	others := map[string][]ml.Classifier{
		"non-NB model":        {models[0], stubClassifier{}, models[2]},
		"typed nil model":     {models[0], (*Model)(nil), models[2]},
		"model in wrong slot": {models[1], models[0], models[2]},
		"short ensemble":      models[:2],
		"long ensemble":       append(append([]ml.Classifier(nil), models...), nil),
		"all masked":          {nil, nil, nil},
	}
	for name, ms := range others {
		if Fuse(ds.Attrs, ms) != nil {
			t.Errorf("%s: Fuse accepted the ensemble", name)
		}
	}
	if Fuse(ds.Attrs[:2], models[:2]) != nil {
		t.Error("Fuse accepted models fitted on a wider schema")
	}
}
