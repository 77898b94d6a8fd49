package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"crossfeature/internal/ml"
	"crossfeature/internal/ml/c45"
	"crossfeature/internal/ml/nbayes"
	"crossfeature/internal/ml/ripper"
)

// fixedClassifier returns a constant distribution, for algorithm tests.
type fixedClassifier struct {
	probs []float64
}

func (f fixedClassifier) PredictProba([]int) []float64 { return f.probs }

func TestAvgMatchCountAlgorithm2(t *testing.T) {
	// Three binary sub-models predicting [0.9 0.1], [0.2 0.8], [0.6 0.4]:
	// argmax classes are 0, 1, 0.
	a := &Analyzer{
		Attrs: []ml.Attr{{Card: 2}, {Card: 2}, {Card: 2}},
		Models: []ml.Classifier{
			fixedClassifier{[]float64{0.9, 0.1}},
			fixedClassifier{[]float64{0.2, 0.8}},
			fixedClassifier{[]float64{0.6, 0.4}},
		},
	}
	// Event (0,1,0): all three predictions match -> 1.
	if got := a.AvgMatchCount([]int{0, 1, 0}); got != 1 {
		t.Errorf("all-match = %v, want 1", got)
	}
	// Event (1,1,0): first mismatches -> 2/3.
	if got := a.AvgMatchCount([]int{1, 1, 0}); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("two-match = %v, want 2/3", got)
	}
	// Event (1,0,1): none match -> 0.
	if got := a.AvgMatchCount([]int{1, 0, 1}); got != 0 {
		t.Errorf("no-match = %v, want 0", got)
	}
}

func TestAvgProbabilityAlgorithm3(t *testing.T) {
	a := &Analyzer{
		Attrs: []ml.Attr{{Card: 2}, {Card: 2}},
		Models: []ml.Classifier{
			fixedClassifier{[]float64{0.9, 0.1}},
			fixedClassifier{[]float64{0.3, 0.7}},
		},
	}
	// Event (0,1): p = (0.9 + 0.7)/2.
	if got := a.AvgProbability([]int{0, 1}); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("avg probability = %v, want 0.8", got)
	}
	// Event (1,0): p = (0.1 + 0.3)/2.
	if got := a.AvgProbability([]int{1, 0}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("avg probability = %v, want 0.2", got)
	}
}

func TestNilModelsAreSkipped(t *testing.T) {
	a := &Analyzer{
		Attrs: []ml.Attr{{Card: 2}, {Card: 2}},
		Models: []ml.Classifier{
			nil,
			fixedClassifier{[]float64{0.25, 0.75}},
		},
	}
	if got := a.AvgProbability([]int{0, 1}); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("skip-nil avg = %v, want 0.75", got)
	}
	if a.NumModels() != 1 {
		t.Errorf("NumModels = %d, want 1", a.NumModels())
	}
}

// correlatedDataset builds normal data where f1 = f0 and f2 is noise.
func correlatedDataset(t *testing.T, n int, seed int64) *ml.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := ml.NewDataset([]ml.Attr{
		{Name: "f0", Card: 3}, {Name: "f1", Card: 3}, {Name: "f2", Card: 3},
	})
	for i := 0; i < n; i++ {
		v := rng.Intn(3)
		if err := ds.Add([]int{v, v, rng.Intn(3)}); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestTrainDetectsBrokenCorrelation(t *testing.T) {
	ds := correlatedDataset(t, 300, 1)
	for _, learner := range []ml.Learner{c45.NewLearner(), ripper.NewLearner(), nbayes.NewLearner()} {
		a, err := Train(ds, learner, TrainOptions{})
		if err != nil {
			t.Fatalf("%s: %v", learner.Name(), err)
		}
		normal := a.AvgProbability([]int{1, 1, 0})
		broken := a.AvgProbability([]int{1, 2, 0}) // f1 != f0: impossible
		if normal <= broken {
			t.Errorf("%s: normal %v not above anomalous %v", learner.Name(), normal, broken)
		}
	}
}

func TestTrainParallelismEquivalence(t *testing.T) {
	ds := correlatedDataset(t, 200, 2)
	seq, err := Train(ds, c45.NewLearner(), TrainOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Train(ds, c45.NewLearner(), TrainOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		x := []int{rng.Intn(3), rng.Intn(3), rng.Intn(3)}
		if math.Abs(seq.AvgProbability(x)-par.AvgProbability(x)) > 1e-12 {
			t.Fatal("parallel training changed the model")
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, c45.NewLearner(), TrainOptions{}); err == nil {
		t.Error("nil dataset accepted")
	}
	ds := correlatedDataset(t, 10, 4)
	if _, err := Train(ds, nil, TrainOptions{}); err == nil {
		t.Error("nil learner accepted")
	}
}

// malformedRows writes rows straight into the exported Dataset.X,
// bypassing Add's checks, in each shape Validate rejects.
var malformedRows = map[string]func(ds *ml.Dataset){
	"out-of-range value": func(ds *ml.Dataset) { ds.X[5][1] = 5 },
	"short row":          func(ds *ml.Dataset) { ds.X[5] = ds.X[5][:2] },
	"negative value":     func(ds *ml.Dataset) { ds.X[5][0] = -1 },
}

// TestTrainRejectsMalformedRows pins that malformed rows come back as an
// error from Train instead of panicking inside the column view or a
// learner.
func TestTrainRejectsMalformedRows(t *testing.T) {
	for name, corrupt := range malformedRows {
		for _, learner := range []ml.Learner{c45.NewLearner(), ripper.NewLearner(), nbayes.NewLearner()} {
			ds := correlatedDataset(t, 50, 2)
			corrupt(ds)
			if _, err := Train(ds, learner, TrainOptions{}); err == nil {
				t.Errorf("%s: %s accepted", learner.Name(), name)
			}
		}
	}
}

// TestFitRejectsMalformedRows pins the same for each learner's own Fit,
// which callers reach without Train: an error, not a panic, and not a
// count silently tallied into a neighbouring attribute's cells.
func TestFitRejectsMalformedRows(t *testing.T) {
	for name, corrupt := range malformedRows {
		for _, learner := range []ml.Learner{c45.NewLearner(), ripper.NewLearner(), nbayes.NewLearner()} {
			ds := correlatedDataset(t, 50, 2)
			corrupt(ds)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: %s panicked: %v", learner.Name(), name, r)
					}
				}()
				if _, err := learner.Fit(ds, 0); err == nil {
					t.Errorf("%s: %s accepted", learner.Name(), name)
				}
			}()
		}
	}
}

func TestSkipConstantFeatures(t *testing.T) {
	ds := ml.NewDataset([]ml.Attr{{Name: "const", Card: 1}, {Name: "v", Card: 2}})
	for i := 0; i < 20; i++ {
		if err := ds.Add([]int{0, i % 2}); err != nil {
			t.Fatal(err)
		}
	}
	a, err := Train(ds, nbayes.NewLearner(), TrainOptions{SkipConstant: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Models[0] != nil {
		t.Error("constant feature was not skipped")
	}
	if a.Models[1] == nil {
		t.Error("varying feature was skipped")
	}
}

func TestThresholdQuantile(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	// 20% false-alarm rate: the 20th percentile of normal scores.
	if got := Threshold(scores, 0.2); got != 0.3 {
		t.Errorf("threshold = %v, want 0.3", got)
	}
	if got := Threshold(scores, 0); got != 0.1 {
		t.Errorf("zero-FAR threshold = %v, want min 0.1", got)
	}
	if got := Threshold(scores, 1); got != 1.0 {
		t.Errorf("FAR 1 threshold = %v, want max", got)
	}
	if got := Threshold(nil, 0.5); got != 0 {
		t.Errorf("empty threshold = %v, want 0", got)
	}
}

// Property: at calibration time, the fraction of normal events below the
// threshold is at most the requested false-alarm rate (plus ties).
func TestQuickThresholdFalseAlarmBound(t *testing.T) {
	f := func(raw []uint8, farRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		far := float64(farRaw%100) / 100
		scores := make([]float64, len(raw))
		for i, v := range raw {
			scores[i] = float64(v) / 255
		}
		th := Threshold(scores, far)
		below := 0
		for _, s := range scores {
			if s < th {
				below++
			}
		}
		return float64(below)/float64(len(scores)) <= far+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDetectorEndToEnd(t *testing.T) {
	ds := correlatedDataset(t, 300, 5)
	a, err := Train(ds, nbayes.NewLearner(), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector(a, Probability, ds.X, 0.05)
	// Normal events mostly pass, broken-correlation events mostly alarm.
	normalsFlagged, anomsFlagged := 0, 0
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		v := rng.Intn(3)
		if d.IsAnomaly([]int{v, v, rng.Intn(3)}) {
			normalsFlagged++
		}
		w := (v + 1 + rng.Intn(2)) % 3
		if d.IsAnomaly([]int{v, w, rng.Intn(3)}) {
			anomsFlagged++
		}
	}
	if normalsFlagged > 20 {
		t.Errorf("%d/100 normal events flagged", normalsFlagged)
	}
	if anomsFlagged < 80 {
		t.Errorf("only %d/100 anomalies flagged", anomsFlagged)
	}
}

func TestScorerString(t *testing.T) {
	if MatchCount.String() != "avg-match-count" || Probability.String() != "avg-probability" {
		t.Error("scorer stringers wrong")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := correlatedDataset(t, 200, 7)
	for _, learner := range []ml.Learner{c45.NewLearner(), ripper.NewLearner(), nbayes.NewLearner()} {
		a, err := Train(ds, learner, TrainOptions{})
		if err != nil {
			t.Fatalf("%s: %v", learner.Name(), err)
		}
		var buf bytes.Buffer
		if err := a.Save(&buf); err != nil {
			t.Fatalf("%s save: %v", learner.Name(), err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s load: %v", learner.Name(), err)
		}
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 30; i++ {
			x := []int{rng.Intn(3), rng.Intn(3), rng.Intn(3)}
			if math.Abs(a.AvgProbability(x)-back.AvgProbability(x)) > 1e-12 {
				t.Fatalf("%s: round trip changed scores", learner.Name())
			}
			if a.AvgMatchCount(x) != back.AvgMatchCount(x) {
				t.Fatalf("%s: round trip changed match counts", learner.Name())
			}
		}
	}
}

func TestCalibrateCountsDroppedScores(t *testing.T) {
	scores := []float64{0.2, math.NaN(), 0.4, math.Inf(1), 0.6, math.Inf(-1), 0.8}
	th, dropped := Calibrate(scores, 0)
	if dropped != 3 {
		t.Errorf("dropped = %d, want 3", dropped)
	}
	if th != 0.2 {
		t.Errorf("threshold = %v, want 0.2", th)
	}
	if th2 := Threshold(scores, 0); th2 != th {
		t.Errorf("Threshold disagrees with Calibrate: %v != %v", th2, th)
	}
	if th, dropped := Calibrate([]float64{math.NaN()}, 0.1); th != 0 || dropped != 1 {
		t.Errorf("all-NaN calibration = (%v, %d), want (0, 1)", th, dropped)
	}
}
