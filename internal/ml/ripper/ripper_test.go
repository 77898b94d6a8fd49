package ripper

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

func TestLearnsSimpleRule(t *testing.T) {
	// y = 1 iff x0 == 2, with a rare positive class so RIPPER rules on it.
	rng := rand.New(rand.NewSource(1))
	var rows [][]int
	for i := 0; i < 400; i++ {
		x0 := rng.Intn(4)
		y := 0
		if x0 == 2 {
			y = 1
		}
		rows = append(rows, []int{x0, rng.Intn(3), y})
	}
	ds := buildDataset(t, []string{"x0", "noise", "y"}, []int{4, 3, 2}, rows)
	c, err := NewLearner().Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		want := 0
		if v == 2 {
			want = 1
		}
		if got := ml.Predict(c, []int{v, 0, 0}); got != want {
			t.Errorf("predict(x0=%d) = %d, want %d", v, got, want)
		}
	}
	rs := c.(*RuleSet)
	if rs.NumRules() == 0 {
		t.Error("no rules induced")
	}
}

func TestLearnsConjunction(t *testing.T) {
	// y = 1 iff x0 == 1 AND x1 == 1.
	rng := rand.New(rand.NewSource(2))
	var rows [][]int
	for i := 0; i < 600; i++ {
		a, b := rng.Intn(3), rng.Intn(3)
		y := 0
		if a == 1 && b == 1 {
			y = 1
		}
		rows = append(rows, []int{a, b, y})
	}
	ds := buildDataset(t, []string{"a", "b", "y"}, []int{3, 3, 2}, rows)
	c, err := NewLearner().Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			want := 0
			if a == 1 && b == 1 {
				want = 1
			}
			if ml.Predict(c, []int{a, b, 0}) != want {
				errs++
			}
		}
	}
	if errs > 0 {
		t.Errorf("%d of 9 input combinations misclassified", errs)
	}
}

func TestDefaultRuleIsMajority(t *testing.T) {
	// Pure noise: the learner should fall back to the majority class.
	rng := rand.New(rand.NewSource(3))
	var rows [][]int
	for i := 0; i < 300; i++ {
		y := 0
		if rng.Float64() < 0.2 {
			y = 1
		}
		rows = append(rows, []int{rng.Intn(4), y})
	}
	ds := buildDataset(t, []string{"noise", "y"}, []int{4, 2}, rows)
	c, err := NewLearner().Fit(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for v := 0; v < 4; v++ {
		if ml.Predict(c, []int{v, 0}) != 0 {
			wrong++
		}
	}
	if wrong > 1 {
		t.Errorf("noise inputs predicted minority class %d/4 times", wrong)
	}
}

func TestProbabilitiesAreDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var rows [][]int
	for i := 0; i < 200; i++ {
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

func TestRuleMatches(t *testing.T) {
	r := Rule{Conds: []Cond{{Attr: 0, Val: 1}, {Attr: 2, Val: 3}}}
	if !r.Matches([]int{1, 9, 3}) {
		t.Error("matching instance rejected")
	}
	if r.Matches([]int{1, 9, 2}) {
		t.Error("non-matching instance accepted")
	}
	if r.Matches([]int{1}) {
		t.Error("short instance accepted")
	}
}

func TestFirstMatchSemantics(t *testing.T) {
	rs := &RuleSet{
		Classes: 2,
		Rules: []Rule{
			{Conds: []Cond{{Attr: 0, Val: 0}}, Class: 1, Counts: []int{0, 10}},
			{Conds: nil, Class: 0, Counts: []int{10, 0}}, // catch-all
		},
		Default: []int{5, 5},
	}
	if got := ml.Predict(rs, []int{0}); got != 1 {
		t.Errorf("first rule should win, got class %d", got)
	}
	if got := ml.Predict(rs, []int{1}); got != 0 {
		t.Errorf("catch-all should fire, got class %d", got)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var rows [][]int
	for i := 0; i < 200; i++ {
		x := rng.Intn(3)
		rows = append(rows, []int{x, rng.Intn(2), x})
	}
	ds := buildDataset(t, []string{"x", "n", "y"}, []int{3, 2, 3}, rows)
	a, err := NewLearner().Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLearner().Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		x := []int{rng.Intn(3), rng.Intn(2), 0}
		pa, pb := a.PredictProba(x), b.PredictProba(x)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("same seed, different models at %v", x)
			}
		}
	}
}

func TestFitErrors(t *testing.T) {
	ds := buildDataset(t, []string{"a", "y"}, []int{2, 2}, [][]int{{0, 0}})
	if _, err := NewLearner().Fit(ds, 7); err == nil {
		t.Error("bad target accepted")
	}
	empty := ml.NewDataset([]ml.Attr{{Name: "a", Card: 2}})
	if _, err := NewLearner().Fit(empty, 0); err == nil {
		t.Error("empty dataset accepted")
	}
}

// TestOutOfRangeSettingsUseDefaults pins the documented fallback: a
// GrowFrac outside (0, 1), NaN and the infinities included, splits as
// Cohen's default 2/3 does, instead of growing unpruned rules on all rows
// (0, 1) or cutting past the end of the rows (1.5).
func TestOutOfRangeSettingsUseDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fracs := []float64{0, -0.5, 1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 20; trial++ {
		ds := randomDataset(rng)
		target := rng.Intn(len(ds.Attrs))
		want, err := NewLearner().Fit(ds, target)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range fracs {
			l := &Learner{GrowFrac: frac, Seed: 1}
			got, err := l.Fit(ds, target)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: GrowFrac %v learned %d rules, the default learns %d",
					trial, frac, got.(*RuleSet).NumRules(), want.(*RuleSet).NumRules())
			}
		}
	}
}

func TestMaxCondsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var rows [][]int
	for i := 0; i < 300; i++ {
		a, b, c, d := rng.Intn(2), rng.Intn(2), rng.Intn(2), rng.Intn(2)
		y := a & b & c & d
		rows = append(rows, []int{a, b, c, d, y})
	}
	ds := buildDataset(t, []string{"a", "b", "c", "d", "y"}, []int{2, 2, 2, 2, 2}, rows)
	l := NewLearner()
	l.MaxConds = 2
	c, err := l.Fit(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range c.(*RuleSet).Rules {
		if len(r.Conds) > 2 {
			t.Errorf("rule has %d conditions, cap is 2", len(r.Conds))
		}
	}
}

func TestGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var rows [][]int
	for i := 0; i < 200; i++ {
		x := rng.Intn(3)
		rows = append(rows, []int{x, rng.Intn(2), (x + 1) % 3})
	}
	ds := buildDataset(t, []string{"x", "n", "y"}, []int{3, 2, 3}, rows)
	c, err := NewLearner().Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c.(*RuleSet)); err != nil {
		t.Fatal(err)
	}
	var back RuleSet
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		x := []int{rng.Intn(3), rng.Intn(2), 0}
		pa, pb := c.PredictProba(x), back.PredictProba(x)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("round trip differs at %v", x)
			}
		}
	}
}

func TestRender(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var rows [][]int
	for i := 0; i < 300; i++ {
		x := rng.Intn(3)
		y := 0
		if x == 1 {
			y = 1
		}
		rows = append(rows, []int{x, rng.Intn(2), y})
	}
	ds := buildDataset(t, []string{"x", "n", "y"}, []int{3, 2, 2}, rows)
	c, err := NewLearner().Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"x", "n", "y"}
	out := c.(*RuleSet).Render(func(i int) string { return names[i] })
	if !strings.Contains(out, "rule set for target y") || !strings.Contains(out, "IF ") ||
		!strings.Contains(out, "default:") {
		t.Errorf("render output wrong:\n%s", out)
	}
}
