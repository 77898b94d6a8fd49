package serve

// Tests for the adaptive overload controller: AIMD budget moves,
// entry/exit hysteresis pinned through the serve/brownout failpoint
// (no real load needed), sample-shedding, the Retry-After clamp edges,
// and — the one that matters most — the level-2 differential: degraded
// verdicts must be bit-identical to the bundle's analyzer and a stream
// detector fed the same records by hand.

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"crossfeature/internal/failpoint"
	"crossfeature/internal/ml"
	"crossfeature/internal/ml/c45"
	"crossfeature/internal/ml/nbayes"
)

func TestDegradedMode(t *testing.T) {
	cases := []struct {
		lvl  int
		want string
	}{
		{brownoutOff, ""},
		{brownoutNoExtras, "extras-off"},
		{brownoutPreShed, "extras-off"},
		{brownoutShedding, "extras-off+shed"},
	}
	for _, c := range cases {
		if got := degradedMode(c.lvl); got != c.want {
			t.Errorf("degradedMode(%d) = %q, want %q", c.lvl, got, c.want)
		}
	}
}

// TestBrownoutHysteresis pins the entry/exit dwell through the failpoint:
// hot ticks below the dwell must not raise the level, the dwell-th must,
// and exit must take the (longer) calm dwell.
func TestBrownoutHysteresis(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.BrownoutEnterAfter = 3
		c.BrownoutExitAfter = 5
	})
	if err := failpoint.Arm("serve/brownout", "error(hot)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm("serve/brownout")

	for i := 0; i < 2; i++ {
		s.brown.tick()
	}
	if got := s.brown.level(); got != brownoutOff {
		t.Fatalf("level after 2 hot ticks = %d, want 0 (dwell is 3)", got)
	}
	s.brown.tick()
	if got := s.brown.level(); got != brownoutNoExtras {
		t.Fatalf("level after 3 hot ticks = %d, want 1", got)
	}
	// Three more hot ticks: one full dwell again, level 2.
	for i := 0; i < 3; i++ {
		s.brown.tick()
	}
	if got := s.brown.level(); got != brownoutPreShed {
		t.Fatalf("level after 6 hot ticks = %d, want 2", got)
	}

	if err := failpoint.Arm("serve/brownout", "error(calm)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.brown.tick()
	}
	if got := s.brown.level(); got != brownoutPreShed {
		t.Fatalf("level after 4 calm ticks = %d, want 2 (exit dwell is 5)", got)
	}
	s.brown.tick()
	if got := s.brown.level(); got != brownoutNoExtras {
		t.Fatalf("level after 5 calm ticks = %d, want 1", got)
	}
	// A single hot tick resets the calm streak: 4 more calm ticks must
	// not be enough to exit again.
	if err := failpoint.Arm("serve/brownout", "error(hot)"); err != nil {
		t.Fatal(err)
	}
	s.brown.tick()
	if err := failpoint.Arm("serve/brownout", "error(calm)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.brown.tick()
	}
	if got := s.brown.level(); got != brownoutNoExtras {
		t.Fatalf("level after hot interruption + 4 calm ticks = %d, want 1", got)
	}
	if got := s.met.brownoutTransitions.Value(); got != 3 {
		t.Fatalf("transitions = %d, want 3 (0->1, 1->2, 2->1)", got)
	}
}

// TestBrownoutForcedLevel pins the failpoint's integer directive: chaos
// runs jump straight to a level without walking the hysteresis.
func TestBrownoutForcedLevel(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if err := failpoint.Arm("serve/brownout", "error(3)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm("serve/brownout")
	s.brown.tick()
	if got := s.brown.level(); got != brownoutShedding {
		t.Fatalf("forced level = %d, want 3", got)
	}
	if err := failpoint.Arm("serve/brownout", "error(0)"); err != nil {
		t.Fatal(err)
	}
	s.brown.tick()
	if got := s.brown.level(); got != brownoutOff {
		t.Fatalf("forced level = %d, want 0", got)
	}
	if got := s.met.brownoutTransitions.Value(); got != 2 {
		t.Fatalf("transitions = %d, want 2", got)
	}
}

// TestAIMDBudget pins the budget dynamics: hot ticks halve toward the
// one-batch floor, calm ticks creep back to the configured maximum.
func TestAIMDBudget(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 1 // pin the floor: one max batch per slot
		c.MaxBatchRecords = 100
		c.MaxQueueRecords = 6400
	})
	if err := failpoint.Arm("serve/brownout", "error(hot)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm("serve/brownout")

	if got := s.adm.recordBudget(); got != 6400 {
		t.Fatalf("initial budget = %d, want 6400", got)
	}
	s.brown.tick()
	if got := s.adm.recordBudget(); got != 3200 {
		t.Fatalf("budget after 1 hot tick = %d, want 3200", got)
	}
	for i := 0; i < 20; i++ {
		s.brown.tick()
	}
	if got := s.adm.recordBudget(); got != 100 {
		t.Fatalf("budget floor = %d, want 100 (one max batch)", got)
	}

	if err := failpoint.Arm("serve/brownout", "error(calm)"); err != nil {
		t.Fatal(err)
	}
	s.brown.tick()
	if got := s.adm.recordBudget(); got != 200 {
		t.Fatalf("budget after 1 calm tick = %d, want 200 (step = max/64)", got)
	}
	for i := 0; i < 200; i++ {
		s.brown.tick()
	}
	if got := s.adm.recordBudget(); got != 6400 {
		t.Fatalf("budget ceiling = %d, want 6400", got)
	}
}

// TestBrownoutLevel2Differential is the brownout analogue of the
// score-diff pinning, for a C4.5 and an NBC bundle: at level 2 and back at
// level 0 the served scores must be bit-identical to the bundle's
// analyzer scored by hand on the same records, and the verdicts to one
// stream detector fed every record in order, so level 2 keeps stream
// state. Level 2 answers extras-off and counts its verdicts.
func TestBrownoutLevel2Differential(t *testing.T) {
	for _, l := range []ml.Learner{c45.NewLearner(), nbayes.NewLearner()} {
		t.Run(l.Name(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "model.bin")
			b := writeTestBundleOf(t, path, l)
			s, err := New(Config{
				ModelPath: path,
				Logf:      func(format string, args ...any) { t.Logf(format, args...) },
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer failpoint.Disarm("serve/brownout")

			recs := records(16, normalRecord)
			recs = append(recs, records(8, anomalousRecord)...)
			ref := s.newOnlineDetector(s.model.current())
			for _, lvl := range []int{brownoutPreShed, brownoutOff} {
				if err := failpoint.Arm("serve/brownout", fmt.Sprintf("error(%d)", lvl)); err != nil {
					t.Fatal(err)
				}
				s.brown.tick()
				resp, sr := postScore(t, ts.URL, ScoreRequest{Stream: "diff", Records: recs})
				if sr == nil {
					t.Fatalf("level-%d score failed: %d", lvl, resp.StatusCode)
				}
				want := map[int]string{brownoutPreShed: "extras-off", brownoutOff: ""}[lvl]
				if got := resp.Header.Get("X-CFA-Degraded"); got != want || sr.Degraded != want {
					t.Fatalf("level %d: X-CFA-Degraded %q, degraded %q, want %q", lvl, got, sr.Degraded, want)
				}
				for i, rr := range sr.Results {
					x, err := b.Discretizer.Transform(recs[i].Values)
					if err != nil {
						t.Fatal(err)
					}
					raw := b.Analyzer.Score(x, b.Scorer)
					st := ref.ObserveScore(raw)
					if math.Float64bits(rr.Score) != math.Float64bits(raw) {
						t.Fatalf("level %d record %d: score %v != analyzer reference %v", lvl, i, rr.Score, raw)
					}
					if rr.Anomaly != (raw < b.Threshold) {
						t.Fatalf("level %d record %d: anomaly %v at threshold %v", lvl, i, rr.Anomaly, b.Threshold)
					}
					if rr.Smoothed != st.Smoothed || rr.Alarm != st.Alarm || rr.Raised != st.Raised || rr.Cleared != st.Cleared {
						t.Fatalf("level %d record %d: verdict %+v != stream reference %+v", lvl, i, rr, st)
					}
				}
				if got := s.streams.len(); got != 1 {
					t.Fatalf("level %d: %d streams, want 1", lvl, got)
				}
			}
			if lvl2 := s.met.brownoutVerdicts[brownoutPreShed].Value(); lvl2 != uint64(len(recs)) {
				t.Fatalf("level-2 verdict counter = %d, want %d", lvl2, len(recs))
			}
		})
	}
}

// TestServeBootsLegacyFallbackBundle boots the service on a bundle from
// the builds whose C4.5 bundles carried a naive-Bayes fallback: it must
// serve, at level 2 too, the scores of the bundle's analyzer.
func TestServeBootsLegacyFallbackBundle(t *testing.T) {
	path := filepath.Join("..", "core", "testdata", "legacy_c45_nbfallback.bin")
	s, err := New(Config{ModelPath: path, Logf: func(format string, args ...any) { t.Logf(format, args...) }})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	b := s.model.current().bundle
	if b.Fallback != nil {
		t.Fatal("served bundle kept its fallback")
	}
	if err := failpoint.Arm("serve/brownout", "error(2)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm("serve/brownout")
	s.brown.tick()
	recs := records(8, normalRecord)
	resp, sr := postScore(t, ts.URL, ScoreRequest{Stream: "legacy", Records: recs})
	if sr == nil {
		t.Fatalf("score failed: %d", resp.StatusCode)
	}
	for i, rr := range sr.Results {
		x, err := b.Discretizer.Transform(recs[i].Values)
		if err != nil {
			t.Fatal(err)
		}
		if want := b.Analyzer.Score(x, b.Scorer); math.Float64bits(rr.Score) != math.Float64bits(want) {
			t.Fatalf("record %d: score %v != analyzer %v", i, rr.Score, want)
		}
	}
}

// TestSampleShedAlternates pins level 3's deterministic 50% shed: out of
// 10 requests exactly 5 are turned away with a degraded 429.
func TestSampleShedAlternates(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := failpoint.Arm("serve/brownout", "error(3)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm("serve/brownout")
	s.brown.tick()

	shed, ok := 0, 0
	for i := 0; i < 10; i++ {
		resp, sr := postScore(t, ts.URL, ScoreRequest{Stream: "s", Records: records(1, normalRecord)})
		switch {
		case sr != nil:
			ok++
		case resp.StatusCode == http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("X-CFA-Degraded") == "" {
				t.Fatal("sample-shed 429 missing X-CFA-Degraded header")
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("sample-shed 429 missing Retry-After header")
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if shed != 5 || ok != 5 {
		t.Fatalf("shed/ok = %d/%d, want 5/5 (deterministic alternation)", shed, ok)
	}
	if got := s.met.brownoutShed.Value(); got != 5 {
		t.Fatalf("brownout shed counter = %d, want 5", got)
	}
	st := s.Stats()
	if st.BrownoutLevel != 3 || st.BrownoutShed != 5 {
		t.Fatalf("Stats brownout level/shed = %d/%d, want 3/5", st.BrownoutLevel, st.BrownoutShed)
	}
}

// TestSampleStrideAIMD pins level 3's adaptive admit stride: hot ticks
// widen it multiplicatively toward the cap, calm ticks narrow it by one,
// and the level refuses to drop until the stride has unwound — a fixed
// 50% door cannot match a 10x storm, and reopening before unwinding
// would just re-admit it.
func TestSampleStrideAIMD(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.BrownoutEnterAfter = 3
		c.BrownoutExitAfter = 2
	})
	if err := failpoint.Arm("serve/brownout", "error(3)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm("serve/brownout")
	s.brown.tick()
	if got := s.brown.sampleStride(); got != sampleStrideMin {
		t.Fatalf("stride after forced entry = %d, want %d", got, sampleStrideMin)
	}

	if err := failpoint.Arm("serve/brownout", "error(hot)"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []int64{3, 4, 6, 9, 13} { // k += max(1, k/2)
		s.brown.tick()
		if got := s.brown.sampleStride(); got != want {
			t.Fatalf("stride after hot tick = %d, want %d", got, want)
		}
	}
	for i := 0; i < 64; i++ {
		s.brown.tick()
	}
	if got := s.brown.sampleStride(); got != sampleStrideMax {
		t.Fatalf("stride cap = %d, want %d", got, sampleStrideMax)
	}
	if got := s.brown.level(); got != brownoutShedding {
		t.Fatalf("level = %d, want 3 (already at max)", got)
	}
	if got := s.Stats().BrownoutStride; got != sampleStrideMax {
		t.Fatalf("Stats stride = %d, want %d", got, sampleStrideMax)
	}

	// Calm ticks unwind the stride one step each and must NOT count
	// toward the exit dwell while doing so.
	if err := failpoint.Arm("serve/brownout", "error(calm)"); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < sampleStrideMax-sampleStrideMin; i++ {
		s.brown.tick()
	}
	if got := s.brown.sampleStride(); got != sampleStrideMin {
		t.Fatalf("stride after unwind = %d, want %d", got, sampleStrideMin)
	}
	if got := s.brown.level(); got != brownoutShedding {
		t.Fatalf("level dropped to %d during stride unwind, want 3", got)
	}
	// Only now does the exit dwell start counting.
	s.brown.tick()
	if got := s.brown.level(); got != brownoutShedding {
		t.Fatalf("level after 1 calm tick past unwind = %d, want 3 (exit dwell is 2)", got)
	}
	s.brown.tick()
	if got := s.brown.level(); got != brownoutPreShed {
		t.Fatalf("level after exit dwell = %d, want 2", got)
	}
}

// TestSampleShedNotOverloadEvidence pins the controller's evidence
// stream: deliberate sample-sheds must not read back as overload, or
// level 3 sustains itself after the real storm ends. Only involuntary
// sheds (queue overflow here) count.
func TestSampleShedNotOverloadEvidence(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := failpoint.Arm("serve/brownout", "error(3)"); err != nil {
		t.Fatal(err)
	}
	s.brown.tick()
	failpoint.Disarm("serve/brownout")

	for i := 0; i < 10; i++ {
		postScore(t, ts.URL, ScoreRequest{Stream: "s", Records: records(1, normalRecord)})
	}
	if got := s.met.brownoutShed.Value(); got == 0 {
		t.Fatal("no sample-sheds happened; the test is not exercising level 3")
	}
	if got := s.adm.unwantedShed(); got != 0 {
		t.Fatalf("unwantedShed = %d after sample-sheds only, want 0", got)
	}
	if ev := s.brown.overloadSignal(); ev.hot || ev.shedHot || ev.budgetHot {
		t.Fatal("overloadSignal = hot on sample-shed evidence alone")
	}

	// An involuntary shed is evidence — and shed evidence specifically,
	// the kind that widens the stride.
	s.adm.unwanted.Inc()
	if ev := s.brown.overloadSignal(); !ev.hot || !ev.shedHot {
		t.Fatal("overloadSignal = calm after an involuntary shed")
	}

	// A shed that bounced off a lowered adaptive budget is no evidence at
	// all: it is the budget enforcing the latency bound the controller
	// chose, and feeding it back would ratchet the loop that listens.
	s.adm.setRecordBudget(s.adm.recordBudget() / 2)
	s.adm.unwanted.Inc()
	s.adm.budgetShed.Inc()
	if ev := s.brown.overloadSignal(); ev.hot || ev.shedHot || ev.budgetHot {
		t.Fatalf("budget-overflow shed evidence = %+v, want none", ev)
	}
}

// TestRetryAfterClampEdges pins the hint clamp [1, 30] at both edges and
// the shed-backlog satellite: shed records must raise the hint for the
// clients shed right behind them, and decay back out.
func TestRetryAfterClampEdges(t *testing.T) {
	a := newAdmitter(1, 1, 1<<20, nil, nil, nil)

	// No EWMA yet: the cheap guess.
	if got := a.retryAfterHint(1); got != 1 {
		t.Fatalf("hint before any service time = %d, want 1", got)
	}
	// Tiny per-record cost: floor at 1.
	a.observeServiceTime(time.Microsecond, 1000)
	if got := a.retryAfterHint(1); got != 1 {
		t.Fatalf("hint at negligible cost = %d, want 1 (low clamp)", got)
	}
	// Absurd per-record cost: ceiling at 30.
	a.observeServiceTime(time.Hour, 1)
	for i := 0; i < 50; i++ { // drive the EWMA all the way up
		a.observeServiceTime(time.Hour, 1)
	}
	if got := a.retryAfterHint(1); got != 30 {
		t.Fatalf("hint at absurd cost = %d, want 30 (high clamp)", got)
	}

	// Fresh admitter with a moderate cost: the shed backlog must move the
	// hint, and decay must move it back.
	b := newAdmitter(1, 1, 1<<20, nil, nil, nil)
	for i := 0; i < 50; i++ {
		b.observeServiceTime(2*time.Second, 1) // 2 s/record, 1-wide service
	}
	base := b.retryAfterHint(1)
	if base != 2 {
		t.Fatalf("base hint = %d, want 2 (2s for the rejected record itself)", base)
	}
	b.noteShed(5)
	raised := b.retryAfterHint(1)
	if raised <= base {
		t.Fatalf("hint after noteShed(5) = %d, want > %d (shed clients come back)", raised, base)
	}
	// Backdate the shed burst far past the half-life: the backlog decays
	// to nothing and the hint returns to base.
	b.shedMu.Lock()
	b.shedLast = time.Now().Add(-100 * shedHalfLife)
	b.shedMu.Unlock()
	if got := b.retryAfterHint(1); got != base {
		t.Fatalf("hint after decay = %d, want %d", got, base)
	}
	if got := b.shedBacklog(); got > 1e-9 {
		t.Fatalf("decayed shed backlog = %v, want ~0", got)
	}
}

// TestShedBacklogMath pins the half-life arithmetic directly.
func TestShedBacklogMath(t *testing.T) {
	a := newAdmitter(1, 1, 1<<20, nil, nil, nil)
	a.noteShed(100)
	a.shedMu.Lock()
	a.shedLast = time.Now().Add(-shedHalfLife)
	a.shedMu.Unlock()
	got := a.shedBacklog()
	if math.Abs(got-50) > 1 { // one half-life: half the records remain
		t.Fatalf("backlog after one half-life = %v, want ~50", got)
	}
}
