package core

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"crossfeature/internal/ml"
	"crossfeature/internal/ml/nbayes"
)

// onlineFixture trains a detector on correlated data and returns it with
// generators for normal and anomalous events.
func onlineFixture(t *testing.T) (*OnlineDetector, func() []int, func() []int) {
	t.Helper()
	ds := correlatedDataset(t, 400, 21)
	a, err := Train(ds, nbayes.NewLearner(), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	det := NewDetector(a, Probability, ds.X, 0.02)
	rng := rand.New(rand.NewSource(22))
	normal := func() []int {
		v := rng.Intn(3)
		return []int{v, v, rng.Intn(3)}
	}
	anomalous := func() []int {
		v := rng.Intn(3)
		return []int{v, (v + 1) % 3, rng.Intn(3)}
	}
	return NewOnlineDetector(det), normal, anomalous
}

func TestOnlineRaisesOnSustainedAnomaly(t *testing.T) {
	o, normal, anomalous := onlineFixture(t)
	for i := 0; i < 30; i++ {
		if st := o.Observe(normal()); st.Alarm {
			t.Fatalf("alarm on normal stream at record %d", i)
		}
	}
	raised := false
	for i := 0; i < 20; i++ {
		st := o.Observe(anomalous())
		if st.Raised {
			raised = true
			if i < o.RaiseAfter-1 {
				t.Errorf("raised after only %d records, hysteresis is %d", i+1, o.RaiseAfter)
			}
			break
		}
	}
	if !raised {
		t.Fatal("sustained anomaly never raised the alarm")
	}
	if !o.Alarm() {
		t.Fatal("alarm state not sticky")
	}
}

func TestOnlineClearsAfterRecovery(t *testing.T) {
	o, normal, anomalous := onlineFixture(t)
	for i := 0; i < 20; i++ {
		o.Observe(anomalous())
	}
	if !o.Alarm() {
		t.Fatal("setup: alarm not raised")
	}
	cleared := false
	for i := 0; i < 40; i++ {
		if st := o.Observe(normal()); st.Cleared {
			cleared = true
			break
		}
	}
	if !cleared {
		t.Fatal("alarm never cleared after recovery")
	}
	if o.Alarm() {
		t.Fatal("alarm state did not reset")
	}
	_, alarms := o.Stats()
	if alarms != 1 {
		t.Errorf("alarms = %d, want 1", alarms)
	}
}

func TestOnlineSingleBlipDoesNotAlarm(t *testing.T) {
	o, normal, anomalous := onlineFixture(t)
	for i := 0; i < 10; i++ {
		o.Observe(normal())
	}
	// One isolated anomalous record: smoothing + hysteresis absorb it.
	if st := o.Observe(anomalous()); st.Raised {
		t.Error("single blip raised the alarm")
	}
	for i := 0; i < 10; i++ {
		if st := o.Observe(normal()); st.Alarm {
			t.Fatal("blip left a lingering alarm")
		}
	}
}

func TestOnlineReset(t *testing.T) {
	o, _, anomalous := onlineFixture(t)
	for i := 0; i < 20; i++ {
		o.Observe(anomalous())
	}
	o.Reset()
	if o.Alarm() {
		t.Error("Reset did not clear the alarm")
	}
}

func TestOnlineSmoothingTracksRaw(t *testing.T) {
	o, normal, _ := onlineFixture(t)
	o.Smoothing = 1 // no smoothing: EWMA equals raw
	for i := 0; i < 5; i++ {
		st := o.Observe(normal())
		if st.Score != st.Smoothed {
			t.Fatalf("smoothing=1 but smoothed %v != raw %v", st.Smoothed, st.Score)
		}
	}
}

// scriptedDetector builds an OnlineDetector whose per-record verdicts the
// test controls exactly: a single binary sub-model predicting class 0
// with certainty, threshold 0.5, MatchCount scoring. Event [0] scores 1
// (normal), event [1] scores 0 (anomalous).
func scriptedDetector() *OnlineDetector {
	a := &Analyzer{
		Attrs:  []ml.Attr{{Name: "f", Card: 2}},
		Models: []ml.Classifier{fixedClassifier{[]float64{0.9, 0.1}}},
	}
	return NewOnlineDetector(&Detector{Analyzer: a, Scorer: MatchCount, Threshold: 0.5})
}

var lowRec, highRec = []int{1}, []int{0}

func TestHysteresisExactRaiseBoundary(t *testing.T) {
	o := scriptedDetector()
	// Exactly RaiseAfter-1 consecutive anomalous records must not alarm.
	for i := 0; i < o.RaiseAfter-1; i++ {
		if st := o.Observe(lowRec); st.Alarm || st.Raised {
			t.Fatalf("alarmed after %d of %d records", i+1, o.RaiseAfter)
		}
	}
	// The RaiseAfter-th does, and exactly once.
	st := o.Observe(lowRec)
	if !st.Raised || !st.Alarm {
		t.Fatalf("record %d did not raise: %+v", o.RaiseAfter, st)
	}
	if st := o.Observe(lowRec); st.Raised {
		t.Error("alarm re-raised while already up")
	}
}

func TestHysteresisExactClearBoundary(t *testing.T) {
	o := scriptedDetector()
	for i := 0; i < o.RaiseAfter; i++ {
		o.Observe(lowRec)
	}
	if !o.Alarm() {
		t.Fatal("setup: alarm not raised")
	}
	// ClearAfter-1 consecutive normal records must leave the alarm up.
	for i := 0; i < o.ClearAfter-1; i++ {
		if st := o.Observe(highRec); !st.Alarm || st.Cleared {
			t.Fatalf("cleared after %d of %d records", i+1, o.ClearAfter)
		}
	}
	// Exactly ClearAfter highs clear it.
	st := o.Observe(highRec)
	if !st.Cleared || st.Alarm {
		t.Fatalf("record %d did not clear: %+v", o.ClearAfter, st)
	}
}

func TestHysteresisAlternatingNeverLatches(t *testing.T) {
	o := scriptedDetector()
	for i := 0; i < 200; i++ {
		rec := highRec
		if i%2 == 0 {
			rec = lowRec
		}
		if st := o.Observe(rec); st.Alarm || st.Raised {
			t.Fatalf("alternating stream latched the alarm at record %d", i)
		}
	}
	// A broken run resets the count: RaiseAfter-1 lows, one high, then
	// RaiseAfter-1 lows again must not alarm either.
	for round := 0; round < 3; round++ {
		for i := 0; i < o.RaiseAfter-1; i++ {
			if st := o.Observe(lowRec); st.Alarm {
				t.Fatal("non-consecutive lows latched the alarm")
			}
		}
		o.Observe(highRec)
	}
}

// nanClassifier poisons its class distribution with NaN.
type nanClassifier struct{}

func (nanClassifier) PredictProba([]int) []float64 {
	return []float64{math.NaN(), math.NaN()}
}

func TestObserveNaNScoreIsAnomalousNotPoisonous(t *testing.T) {
	good := fixedClassifier{[]float64{0.9, 0.1}}
	a := &Analyzer{
		Attrs:  []ml.Attr{{Name: "f", Card: 2}},
		Models: []ml.Classifier{good},
	}
	o := NewOnlineDetector(&Detector{Analyzer: a, Scorer: Probability, Threshold: 0.5})

	// Establish a healthy smoothed state.
	for i := 0; i < 5; i++ {
		o.Observe(highRec)
	}
	before := o.Observe(highRec).Smoothed
	if math.IsNaN(before) {
		t.Fatal("setup: smoothed state already NaN")
	}

	// Swap in a NaN-emitting sub-model: scores go non-finite.
	a.Models[0] = nanClassifier{}
	var st State
	for i := 0; i < o.RaiseAfter; i++ {
		st = o.Observe(highRec)
		if !math.IsNaN(st.Score) {
			t.Fatalf("fixture: expected NaN score, got %v", st.Score)
		}
		if math.IsNaN(st.Smoothed) {
			t.Fatal("NaN score poisoned the smoothed state")
		}
	}
	if !st.Alarm {
		t.Error("sustained NaN scores did not raise the alarm")
	}
	if got := o.Invalid(); got != uint64(o.RaiseAfter) {
		t.Errorf("Invalid() = %d, want %d", got, o.RaiseAfter)
	}

	// Recovery: healthy records clear the alarm and the EWMA picks up
	// from its pre-poisoning value.
	a.Models[0] = good
	for i := 0; i < o.ClearAfter; i++ {
		st = o.Observe(highRec)
	}
	if st.Alarm {
		t.Error("alarm did not clear after recovery from NaN scores")
	}
	if math.IsNaN(st.Smoothed) || st.Smoothed < before {
		t.Errorf("smoothed state did not recover: %v (before %v)", st.Smoothed, before)
	}
}

func TestSwapDetectorPreservesState(t *testing.T) {
	o := scriptedDetector()
	for i := 0; i < o.RaiseAfter; i++ {
		o.Observe(lowRec)
	}
	if !o.Alarm() {
		t.Fatal("setup: alarm not raised")
	}
	smoothedBefore := o.Observe(lowRec).Smoothed

	// Hot-swap to a retrained detector (same schema, new threshold).
	a2 := &Analyzer{
		Attrs:  []ml.Attr{{Name: "f", Card: 2}},
		Models: []ml.Classifier{fixedClassifier{[]float64{0.8, 0.2}}},
	}
	o.SwapDetector(&Detector{Analyzer: a2, Scorer: MatchCount, Threshold: 0.4})
	if !o.Alarm() {
		t.Error("swap dropped the active alarm")
	}
	st := o.Observe(lowRec)
	if math.Abs(st.Smoothed-smoothedBefore/2) > 1e-12 {
		t.Errorf("swap reset the EWMA: got %v", st.Smoothed)
	}
	o.SwapDetector(nil) // must be a no-op, not a panic
	o.Observe(highRec)
}

// TestOnlineStateRoundTrip pins the checkpoint encoding: a detector
// restored from AppendState bytes must produce bit-identical verdicts to
// the original from that point on — this is the continuity guarantee the
// serve checkpoint format is built on.
func TestOnlineStateRoundTrip(t *testing.T) {
	o, normal, anomalous := onlineFixture(t)
	o.Smoothing = 0.25
	o.RaiseAfter = 2
	o.ClearAfter = 4
	// Drive the detector into a non-trivial condition: mid-run, alarmed.
	for i := 0; i < 40; i++ {
		o.Observe(normal())
	}
	for i := 0; i < 7; i++ {
		o.Observe(anomalous())
	}

	blob := o.AppendState(nil)
	if len(blob) != OnlineStateLen {
		t.Fatalf("state blob = %d bytes, want %d", len(blob), OnlineStateLen)
	}
	restored := NewOnlineDetector(o.det)
	if err := restored.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Smoothing != o.Smoothing || restored.RaiseAfter != o.RaiseAfter || restored.ClearAfter != o.ClearAfter {
		t.Errorf("knobs lost: %+v", restored)
	}
	if restored.Alarm() != o.Alarm() {
		t.Errorf("alarm condition lost")
	}
	r1, a1 := o.Stats()
	r2, a2 := restored.Stats()
	if r1 != r2 || a1 != a2 || o.Invalid() != restored.Invalid() {
		t.Errorf("counters lost: (%d,%d,%d) != (%d,%d,%d)", r1, a1, o.Invalid(), r2, a2, restored.Invalid())
	}

	// From here on the two must agree on every record, bit for bit.
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 200; i++ {
		var x []int
		if rng.Intn(3) == 0 {
			x = anomalous()
		} else {
			x = normal()
		}
		s1 := o.Observe(x)
		s2 := restored.Observe(append([]int(nil), x...))
		if s1 != s2 {
			t.Fatalf("record %d: original %+v, restored %+v", i, s1, s2)
		}
	}
}

// TestOnlineStateRejectsDamage feeds RestoreState every kind of broken
// blob; all must fail with ErrOnlineState and leave the detector usable.
func TestOnlineStateRejectsDamage(t *testing.T) {
	o, normal, _ := onlineFixture(t)
	for i := 0; i < 10; i++ {
		o.Observe(normal())
	}
	good := o.AppendState(nil)

	badVersion := append([]byte(nil), good...)
	badVersion[0] = 9
	badFlags := append([]byte(nil), good...)
	badFlags[1] = 0xff
	nanEwma := append([]byte(nil), good...)
	binary.BigEndian.PutUint64(nanEwma[2:10], math.Float64bits(math.NaN()))
	badSmoothing := append([]byte(nil), good...)
	binary.BigEndian.PutUint64(badSmoothing[10:18], math.Float64bits(7.5))
	hugeRun := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(hugeRun[18:22], 1<<31-1)

	for name, data := range map[string][]byte{
		"empty":           nil,
		"short":           good[:OnlineStateLen-1],
		"long":            append(append([]byte(nil), good...), 0),
		"bad version":     badVersion,
		"unknown flags":   badFlags,
		"nan ewma":        nanEwma,
		"bad smoothing":   badSmoothing,
		"implausible run": hugeRun,
	} {
		fresh := NewOnlineDetector(o.det)
		if err := fresh.RestoreState(data); !errors.Is(err, ErrOnlineState) {
			t.Errorf("%s: error = %v, want ErrOnlineState", name, err)
		}
		// The detector must stay usable after a rejected restore.
		fresh.Observe(normal())
	}
}

// TestOnlineStateUninitializedEwma: a never-observed detector (EWMA not
// yet initialised) round-trips, including the zero EWMA.
func TestOnlineStateUninitializedEwma(t *testing.T) {
	o, normal, _ := onlineFixture(t)
	fresh := NewOnlineDetector(o.det)
	blob := fresh.AppendState(nil)
	restored := NewOnlineDetector(o.det)
	if err := restored.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	x := normal()
	s1, s2 := fresh.Observe(x), restored.Observe(x)
	if s1 != s2 {
		t.Errorf("first observation diverged: %+v vs %+v", s1, s2)
	}
}
