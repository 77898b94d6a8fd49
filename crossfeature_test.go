package crossfeature_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	crossfeature "crossfeature"
)

// TestPublicAPIEndToEnd exercises the facade exactly as the package doc
// comment advertises: fit a discretiser, train, calibrate, detect.
func TestPublicAPIEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"a", "b", "noise"}
	normalRow := func() []float64 {
		v := rng.Float64() * 10
		return []float64{v, 2*v + rng.Float64()*0.2, rng.Float64() * 100}
	}
	var rows [][]float64
	for i := 0; i < 500; i++ {
		rows = append(rows, normalRow())
	}
	disc, err := crossfeature.FitDiscretizer(rows, names, crossfeature.FitOptions{Buckets: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := disc.Dataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, learner := range []crossfeature.Learner{
		crossfeature.NewC45(), crossfeature.NewRIPPER(), crossfeature.NewNaiveBayes(),
	} {
		analyzer, err := crossfeature.Train(ds, learner, crossfeature.TrainOptions{})
		if err != nil {
			t.Fatalf("%s: %v", learner.Name(), err)
		}
		det := crossfeature.NewDetector(analyzer, crossfeature.Probability, ds.X, 0.05)

		var events []crossfeature.Scored
		flaggedNormal, flaggedAnomalous := 0, 0
		for i := 0; i < 100; i++ {
			x, err := disc.Transform(normalRow())
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, crossfeature.Scored{Score: det.Score(x)})
			if det.IsAnomaly(x) {
				flaggedNormal++
			}
			// Broken correlation: b is in the normal marginal range but no
			// longer tracks a.
			v := 2 + rng.Float64()*6
			y, err := disc.Transform([]float64{v, 2 * (10 - v), rng.Float64() * 100})
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, crossfeature.Scored{Score: det.Score(y), Intrusion: true})
			if det.IsAnomaly(y) {
				flaggedAnomalous++
			}
		}
		if flaggedNormal > 25 {
			t.Errorf("%s: %d/100 normal events flagged", learner.Name(), flaggedNormal)
		}
		if flaggedAnomalous < 60 {
			t.Errorf("%s: only %d/100 anomalies flagged", learner.Name(), flaggedAnomalous)
		}
		pts := crossfeature.Curve(events)
		if auc := crossfeature.AUC(pts); auc < 0.8 {
			t.Errorf("%s: public-API pipeline AUC %.3f", learner.Name(), auc)
		}
	}
}

// TestThresholdEdgeCases pins the calibration behaviour on degenerate
// score distributions: the result is always a finite number, an empty (or
// all-non-finite) input disables alarming, and identical normal scores are
// never flagged under the strict "score < threshold" rule.
func TestThresholdEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		scores []float64
		rate   float64
		want   float64
	}{
		{"empty", nil, 0.02, 0},
		{"all NaN", []float64{math.NaN(), math.NaN()}, 0.02, 0},
		{"all Inf", []float64{math.Inf(1), math.Inf(-1)}, 0.02, 0},
		{"all identical", []float64{0.7, 0.7, 0.7, 0.7}, 0.02, 0.7},
		{"single score", []float64{0.5}, 0.02, 0.5},
		{"NaN mixed in", []float64{math.NaN(), 0.4, 0.6}, 0, 0.4},
		{"rate NaN", []float64{0.4, 0.6}, math.NaN(), 0.4},
		{"rate negative", []float64{0.4, 0.6}, -1, 0.4},
		{"rate above one", []float64{0.4, 0.6}, 7, 0.6},
	}
	for _, c := range cases {
		got := crossfeature.Threshold(c.scores, c.rate)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("%s: threshold %v is not finite", c.name, got)
			continue
		}
		if got != c.want {
			t.Errorf("%s: threshold %v, want %v", c.name, got, c.want)
		}
	}
	// All-identical normal scores must not alarm on those same scores.
	thr := crossfeature.Threshold([]float64{0.7, 0.7, 0.7}, 0.02)
	if 0.7 < thr {
		t.Error("identical normal scores fall below their own threshold")
	}
}

// TestMalformedAuditDataNoPanic drives the full public pipeline with
// hostile audit rows — NaN, ±Inf, wildly out-of-range values, rows that are
// entirely unknown — and demands finite scores and boolean verdicts, never
// a panic or error.
func TestMalformedAuditDataNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	names := []string{"a", "b", "c"}
	var rows [][]float64
	for i := 0; i < 300; i++ {
		v := rng.Float64() * 10
		rows = append(rows, []float64{v, 2 * v, rng.Float64()})
	}
	disc, err := crossfeature.FitDiscretizer(rows, names, crossfeature.FitOptions{Buckets: 5})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := disc.Dataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	a, err := crossfeature.Train(ds, crossfeature.NewC45(), crossfeature.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	det := crossfeature.NewDetector(a, crossfeature.Probability, ds.X, 0.02)

	hostile := [][]float64{
		{math.NaN(), math.NaN(), math.NaN()},
		{math.Inf(1), math.Inf(-1), math.NaN()},
		{-1e300, 1e300, 0.5},
		{5, math.NaN(), 0.5},
		{math.NaN(), 10, math.Inf(1)},
	}
	for _, row := range hostile {
		x, err := disc.Transform(row)
		if err != nil {
			t.Fatalf("Transform(%v): %v", row, err)
		}
		for _, s := range []crossfeature.Scorer{crossfeature.MatchCount, crossfeature.Probability} {
			score := a.Score(x, s)
			if math.IsNaN(score) || math.IsInf(score, 0) || score < 0 || score > 1 {
				t.Errorf("Score(%v, %v) = %v, want finite in [0,1]", row, s, score)
			}
		}
		_ = det.IsAnomaly(x) // must not panic
	}

	// Truncated vectors (audit records cut short) score too: missing tail
	// features are treated as unknown.
	short := []int{0}
	for _, s := range []crossfeature.Scorer{crossfeature.MatchCount, crossfeature.Probability} {
		score := a.Score(short, s)
		if math.IsNaN(score) || math.IsInf(score, 0) {
			t.Errorf("truncated vector score %v not finite", score)
		}
	}
	_ = det.IsAnomaly(nil) // fully empty record: no panic either
}

// TestTrainRejectsMalformedRows pins that rows written straight into the
// exported Dataset.X, bypassing Add's checks, come back as an error from
// Train instead of a panic.
func TestTrainRejectsMalformedRows(t *testing.T) {
	attrs := []crossfeature.Attr{{Name: "a", Card: 2}, {Name: "b", Card: 2}, {Name: "c", Card: 3}}
	for name, bad := range map[string][]int{
		"out-of-range value": {0, 5, 1},
		"short row":          {0, 1},
		"negative value":     {-1, 0, 2},
	} {
		ds := crossfeature.NewDataset(attrs)
		for i := 0; i < 40; i++ {
			if err := ds.Add([]int{i % 2, i % 2, i % 3}); err != nil {
				t.Fatal(err)
			}
		}
		ds.X = append(ds.X, bad)
		if _, err := crossfeature.Train(ds, crossfeature.NewRIPPER(), crossfeature.TrainOptions{}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestPublicAPIPersistence(t *testing.T) {
	ds := crossfeature.NewDataset([]crossfeature.Attr{
		{Name: "x", Card: 3}, {Name: "y", Card: 3},
	})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		v := rng.Intn(3)
		if err := ds.Add([]int{v, v}); err != nil {
			t.Fatal(err)
		}
	}
	a, err := crossfeature.Train(ds, crossfeature.NewNaiveBayes(), crossfeature.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := crossfeature.LoadAnalyzer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Score([]int{1, 1}, crossfeature.Probability) != a.Score([]int{1, 1}, crossfeature.Probability) {
		t.Error("persistence changed scores")
	}
}

func TestPublicOnlineDetector(t *testing.T) {
	ds := crossfeature.NewDataset([]crossfeature.Attr{
		{Name: "x", Card: 3}, {Name: "y", Card: 3},
	})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		v := rng.Intn(3)
		if err := ds.Add([]int{v, v}); err != nil {
			t.Fatal(err)
		}
	}
	a, err := crossfeature.Train(ds, crossfeature.NewNaiveBayes(), crossfeature.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	det := crossfeature.NewDetector(a, crossfeature.Probability, ds.X, 0.02)
	online := crossfeature.NewOnlineDetector(det)
	for i := 0; i < 20; i++ {
		v := rng.Intn(3)
		online.Observe([]int{v, v})
	}
	if online.Alarm() {
		t.Fatal("alarm on normal stream")
	}
	for i := 0; i < 10; i++ {
		v := rng.Intn(3)
		online.Observe([]int{v, (v + 1) % 3})
	}
	if !online.Alarm() {
		t.Error("sustained anomaly never raised the online alarm")
	}
}
