package nbayes

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"crossfeature/internal/ml"
)

func buildDataset(t *testing.T, cards []int, rows [][]int) *ml.Dataset {
	t.Helper()
	attrs := make([]ml.Attr, len(cards))
	for i, c := range cards {
		attrs[i] = ml.Attr{Name: "f", Card: c}
	}
	ds := ml.NewDataset(attrs)
	for _, r := range rows {
		if err := ds.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestHandComputedPosterior(t *testing.T) {
	// One binary input, binary class, alpha=1.
	// Data: (x=0,y=0) x3, (x=1,y=0) x1, (x=1,y=1) x2.
	rows := [][]int{{0, 0}, {0, 0}, {0, 0}, {1, 0}, {1, 1}, {1, 1}}
	ds := buildDataset(t, []int{2, 2}, rows)
	c, err := NewLearner().Fit(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	// p(y=0) = (4+1)/(6+2) = 5/8; p(y=1) = 3/8.
	// p(x=1|y=0) = (1+1)/(4+2) = 1/3; p(x=1|y=1) = (2+1)/(2+2) = 3/4.
	// score0 = 5/8 * 1/3 = 5/24; score1 = 3/8 * 3/4 = 9/32.
	// posterior(y=1|x=1) = (9/32)/(9/32 + 5/24) = 27/47.
	p := c.PredictProba([]int{1, 0})
	want := 27.0 / 47.0
	if math.Abs(p[1]-want) > 1e-9 {
		t.Errorf("posterior = %v, want p(1)=%v", p, want)
	}
}

func TestLearnsNoisyMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var rows [][]int
	for i := 0; i < 500; i++ {
		y := rng.Intn(3)
		x0 := y
		if rng.Float64() < 0.2 {
			x0 = rng.Intn(3)
		}
		x1 := (y + 1) % 3
		if rng.Float64() < 0.2 {
			x1 = rng.Intn(3)
		}
		rows = append(rows, []int{x0, x1, y})
	}
	ds := buildDataset(t, []int{3, 3, 3}, rows)
	c, err := NewLearner().Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for y := 0; y < 3; y++ {
		if ml.Predict(c, []int{y, (y + 1) % 3, 0}) == y {
			correct++
		}
	}
	if correct != 3 {
		t.Errorf("clean prototypes classified %d/3", correct)
	}
}

func TestProbabilitiesAreDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var rows [][]int
	for i := 0; i < 100; i++ {
		rows = append(rows, []int{rng.Intn(4), rng.Intn(2), rng.Intn(3)})
	}
	ds := buildDataset(t, []int{4, 2, 3}, rows)
	c, err := NewLearner().Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		p := c.PredictProba([]int{int(a % 4), int(b % 2), 0})
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

func TestUnseenValueDoesNotPanic(t *testing.T) {
	ds := buildDataset(t, []int{3, 2}, [][]int{{0, 0}, {1, 1}})
	c, err := NewLearner().Fit(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := c.PredictProba([]int{-1, 0})
	if math.Abs(p[0]+p[1]-1) > 1e-9 {
		t.Errorf("invalid input produced non-distribution %v", p)
	}
}

func TestTargetColumnIgnoredAtPrediction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rows [][]int
	for i := 0; i < 200; i++ {
		x := rng.Intn(2)
		rows = append(rows, []int{x, x})
	}
	ds := buildDataset(t, []int{2, 2}, rows)
	c, err := NewLearner().Fit(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Changing the target slot of the input must not change the output.
	a := c.PredictProba([]int{1, 0})
	b := c.PredictProba([]int{1, 1})
	for i := range a {
		if a[i] != b[i] {
			t.Error("prediction depends on the target column of the input")
		}
	}
}

func TestFitErrors(t *testing.T) {
	ds := buildDataset(t, []int{2, 2}, [][]int{{0, 0}})
	if _, err := NewLearner().Fit(ds, 9); err == nil {
		t.Error("bad target accepted")
	}
	empty := ml.NewDataset([]ml.Attr{{Name: "a", Card: 2}})
	if _, err := NewLearner().Fit(empty, 0); err == nil {
		t.Error("empty dataset accepted")
	}
}

// TestOutOfRangeSettingsUseDefaults pins the documented fallback: an
// Alpha that is not positive and finite smooths as Laplace's 1 does,
// instead of turning every probability into NaN.
func TestOutOfRangeSettingsUseDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		ds := randomDataset(rng)
		target := rng.Intn(len(ds.Attrs))
		want, err := NewLearner().Fit(ds, target)
		if err != nil {
			t.Fatal(err)
		}
		for _, alpha := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			got, err := (&Learner{Alpha: alpha}).Fit(ds, target)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Alpha %v fitted priors %v, Laplace fits %v",
					trial, alpha, got.(*Model).LogPrior, want.(*Model).LogPrior)
			}
		}
	}
}

func TestGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var rows [][]int
	for i := 0; i < 100; i++ {
		x := rng.Intn(3)
		rows = append(rows, []int{x, rng.Intn(2), x})
	}
	ds := buildDataset(t, []int{3, 2, 3}, rows)
	c, err := NewLearner().Fit(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c.(*Model)); err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	x := []int{1, 1, 0}
	pa, pb := c.PredictProba(x), back.PredictProba(x)
	for i := range pa {
		if math.Abs(pa[i]-pb[i]) > 1e-12 {
			t.Fatal("gob round trip changed predictions")
		}
	}
}
