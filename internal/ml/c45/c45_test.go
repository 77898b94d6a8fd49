package c45

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"crossfeature/internal/ml"
)

// buildDataset constructs a dataset from rows with inferred cardinalities.
func buildDataset(t *testing.T, names []string, cards []int, rows [][]int) *ml.Dataset {
	t.Helper()
	attrs := make([]ml.Attr, len(names))
	for i := range names {
		attrs[i] = ml.Attr{Name: names[i], Card: cards[i]}
	}
	ds := ml.NewDataset(attrs)
	for _, r := range rows {
		if err := ds.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestLearnsDeterministicMapping(t *testing.T) {
	// y = x0 (x1 is noise).
	rng := rand.New(rand.NewSource(1))
	var rows [][]int
	for i := 0; i < 200; i++ {
		x0 := rng.Intn(3)
		rows = append(rows, []int{x0, rng.Intn(4), x0})
	}
	ds := buildDataset(t, []string{"x0", "noise", "y"}, []int{3, 4, 3}, rows)
	c, err := NewLearner().Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if got := ml.Predict(c, []int{v, 1, 0}); got != v {
			t.Errorf("predict(x0=%d) = %d, want %d", v, got, v)
		}
	}
}

func TestPrefersInformativeAttribute(t *testing.T) {
	// y = x0 exactly; x1 is correlated but imperfect. The root split must
	// be on x0.
	rng := rand.New(rand.NewSource(2))
	var rows [][]int
	for i := 0; i < 300; i++ {
		y := rng.Intn(2)
		x1 := y
		if rng.Float64() < 0.3 {
			x1 = 1 - y
		}
		rows = append(rows, []int{y, x1, y})
	}
	ds := buildDataset(t, []string{"x0", "x1", "y"}, []int{2, 2, 2}, rows)
	c, err := NewLearner().Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	tree := c.(*Tree)
	if tree.Root.Attr != 0 {
		t.Errorf("root split on attr %d, want 0", tree.Root.Attr)
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rows [][]int
	for i := 0; i < 100; i++ {
		rows = append(rows, []int{rng.Intn(3), rng.Intn(3), rng.Intn(3)})
	}
	ds := buildDataset(t, []string{"a", "b", "y"}, []int{3, 3, 3}, rows)
	c, err := NewLearner().Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		p := c.PredictProba([]int{int(a % 3), int(b % 3), 0})
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnseenValueFallsBackGracefully(t *testing.T) {
	rows := [][]int{{0, 0, 0}, {0, 0, 0}, {1, 0, 1}, {1, 0, 1}}
	ds := buildDataset(t, []string{"x", "pad", "y"}, []int{3, 2, 2}, rows)
	l := NewLearner()
	l.MinLeaf = 1
	c, err := l.Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	// x=2 never appeared; prediction must come from the fallback counts.
	p := c.PredictProba([]int{2, 0, 0})
	if math.Abs(p[0]+p[1]-1) > 1e-9 {
		t.Errorf("fallback distribution invalid: %v", p)
	}
	if p[0] != p[1] {
		t.Errorf("balanced fallback should be uniform, got %v", p)
	}
}

func TestPruningCollapsesNoiseSplits(t *testing.T) {
	// Target is pure noise: a pruned tree should be (close to) a stump.
	rng := rand.New(rand.NewSource(4))
	var rows [][]int
	for i := 0; i < 200; i++ {
		rows = append(rows, []int{rng.Intn(4), rng.Intn(4), rng.Intn(2)})
	}
	ds := buildDataset(t, []string{"a", "b", "y"}, []int{4, 4, 2}, rows)
	unpruned := &Learner{MinLeaf: 2, Prune: false}
	pruned := &Learner{MinLeaf: 2, Prune: true, CF: 0.25}
	cu, err := unpruned.Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := pruned.Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cp.(*Tree).Size() > cu.(*Tree).Size() {
		t.Errorf("pruned tree (%d nodes) larger than unpruned (%d)",
			cp.(*Tree).Size(), cu.(*Tree).Size())
	}
}

func TestHoldoutPruningKillsSpuriousModels(t *testing.T) {
	// The target is independent of the inputs, but with a temporal drift
	// that in-sample trees love to memorise. Holdout REP must collapse the
	// tree to (near) a stump whose predictions are the marginal.
	rng := rand.New(rand.NewSource(5))
	var rows [][]int
	for i := 0; i < 300; i++ {
		regime := i / 75 // temporal regimes
		rows = append(rows, []int{(regime + rng.Intn(2)) % 4, rng.Intn(4), rng.Intn(3)})
	}
	ds := buildDataset(t, []string{"drift", "noise", "y"}, []int{4, 4, 3}, rows)
	l := &Learner{MinLeaf: 2, Prune: true, CF: 0.25, HoldoutFrac: 1.0 / 3.0}
	c, err := l.Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := &Learner{MinLeaf: 2, Prune: false}
	cu, err := base.Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	pruned, unpruned := c.(*Tree).Size(), cu.(*Tree).Size()
	if pruned > unpruned {
		t.Errorf("holdout pruning grew the tree: %d of %d nodes", pruned, unpruned)
	}
	// Predictions on fresh inputs should be close to the class marginal.
	p := c.PredictProba([]int{0, 0, 0})
	for cls, v := range p {
		if v < 0.15 || v > 0.55 {
			t.Errorf("class %d probability %v far from the 1/3 marginal", cls, v)
		}
	}
}

func TestMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var rows [][]int
	for i := 0; i < 200; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		rows = append(rows, []int{a, b, a ^ b})
	}
	ds := buildDataset(t, []string{"a", "b", "y"}, []int{2, 2, 2}, rows)
	l := &Learner{MinLeaf: 2, MaxDepth: 1}
	c, err := l.Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := c.(*Tree).Depth(); d > 1 {
		t.Errorf("depth %d exceeds MaxDepth 1", d)
	}
}

func TestFitErrors(t *testing.T) {
	ds := buildDataset(t, []string{"a", "y"}, []int{2, 2}, [][]int{{0, 0}})
	if _, err := NewLearner().Fit(ds, 5); err == nil {
		t.Error("out-of-range target accepted")
	}
	empty := ml.NewDataset([]ml.Attr{{Name: "a", Card: 2}})
	if _, err := NewLearner().Fit(empty, 0); err == nil {
		t.Error("empty dataset accepted")
	}
}

// TestOutOfRangeSettingsUseDefaults pins the documented fallbacks: a CF
// outside (0, 1), NaN and the infinities included, prunes as the default
// 0.25 does, and a MinLeaf below 1 grows as the default 2 does.
func TestOutOfRangeSettingsUseDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var variants []*Learner
	for _, cf := range []float64{0, -1, 1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		variants = append(variants, &Learner{MinLeaf: 2, Prune: true, CF: cf})
	}
	variants = append(variants, &Learner{MinLeaf: 0, Prune: true, CF: 0.25}, &Learner{MinLeaf: -3, Prune: true, CF: 0.25})
	for trial := 0; trial < 20; trial++ {
		ds := randomDataset(rng)
		target := rng.Intn(len(ds.Attrs))
		want, err := NewLearner().Fit(ds, target)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range variants {
			got, err := l.Fit(ds, target)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %+v grew a %d-node tree, the default grows %d nodes",
					trial, l, got.(*Tree).Size(), want.(*Tree).Size())
			}
		}
	}
}

func TestGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var rows [][]int
	for i := 0; i < 150; i++ {
		x := rng.Intn(3)
		rows = append(rows, []int{x, rng.Intn(5), (x + 1) % 3})
	}
	ds := buildDataset(t, []string{"x", "n", "y"}, []int{3, 5, 3}, rows)
	c, err := NewLearner().Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c.(*Tree)); err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		x := []int{rng.Intn(3), rng.Intn(5), rng.Intn(3)}
		a := c.PredictProba(x)
		b := back.PredictProba(x)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-12 {
				t.Fatalf("round-tripped tree differs on %v: %v vs %v", x, a, b)
			}
		}
	}
}

func TestInvNormSanity(t *testing.T) {
	// invNorm(0.75) should be about 0.6745.
	if got := invNorm(0.75); math.Abs(got-0.6745) > 1e-3 {
		t.Errorf("invNorm(0.75) = %v", got)
	}
	if got := invNorm(0.5); math.Abs(got) > 1e-9 {
		t.Errorf("invNorm(0.5) = %v, want 0", got)
	}
	if !math.IsInf(invNorm(0), -1) || !math.IsInf(invNorm(1), 1) {
		t.Error("invNorm boundary behaviour wrong")
	}
}

func TestPessimisticErrors(t *testing.T) {
	// More observed errors -> more pessimistic errors; zero observed still
	// yields a positive bound.
	z := zFromCF(0.25)
	e0 := pessimisticErrors(100, 0, z)
	e5 := pessimisticErrors(100, 5, z)
	if e0 <= 0 {
		t.Errorf("pessimistic errors with 0 observed = %v, want > 0", e0)
	}
	if e5 <= e0 {
		t.Errorf("monotonicity violated: %v <= %v", e5, e0)
	}
}

func TestRender(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var rows [][]int
	for i := 0; i < 100; i++ {
		x := rng.Intn(2)
		rows = append(rows, []int{x, rng.Intn(2), x})
	}
	ds := buildDataset(t, []string{"x", "n", "y"}, []int{2, 2, 2}, rows)
	c, err := NewLearner().Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"x", "n", "y"}
	out := c.(*Tree).Render(func(i int) string { return names[i] }, 0)
	if !strings.Contains(out, "tree for target y") || !strings.Contains(out, "x = 0") {
		t.Errorf("render output wrong:\n%s", out)
	}
	if got := c.(*Tree).Render(nil, 1); !strings.Contains(got, "f2") {
		t.Errorf("default naming wrong:\n%s", got)
	}
}
