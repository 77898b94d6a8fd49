package main

import (
	"math"
	"testing"

	"crossfeature/internal/serve"
)

// TestCompareResultsCatchesCorruption corrupts one field of one reference
// verdict at a time: the verification pass must reject every one, and
// accept the untouched reference.
func TestCompareResultsCatchesCorruption(t *testing.T) {
	ref := func() [][]serve.RecordResult {
		return [][]serve.RecordResult{
			{{Time: 255, Score: 0.8125, Smoothed: 0.8, Alarm: false}},
			{{Time: 260, Score: 0.25, Smoothed: 0.5, Anomaly: true, Alarm: true, Raised: true},
				{Time: 265, Score: -1, Smoothed: 0.5, Anomaly: true, Alarm: true, Invalid: true}},
		}
	}
	if err := compareResults(ref(), ref()); err != nil {
		t.Fatalf("identical verdicts rejected: %v", err)
	}
	for name, corrupt := range map[string]func(r *serve.RecordResult){
		"score one ulp": func(r *serve.RecordResult) { r.Score = math.Nextafter(r.Score, 1) },
		"smoothed":      func(r *serve.RecordResult) { r.Smoothed = math.Nextafter(r.Smoothed, 0) },
		"time":          func(r *serve.RecordResult) { r.Time++ },
		"anomaly":       func(r *serve.RecordResult) { r.Anomaly = !r.Anomaly },
		"alarm":         func(r *serve.RecordResult) { r.Alarm = !r.Alarm },
		"raised":        func(r *serve.RecordResult) { r.Raised = !r.Raised },
		"cleared":       func(r *serve.RecordResult) { r.Cleared = !r.Cleared },
		"invalid":       func(r *serve.RecordResult) { r.Invalid = !r.Invalid },
	} {
		want := ref()
		corrupt(&want[1][0])
		if err := compareResults(ref(), want); err == nil {
			t.Errorf("corrupted %s accepted", name)
		}
	}
	short := ref()
	short[1] = short[1][:1]
	if err := compareResults(ref(), short); err == nil {
		t.Error("missing verdict accepted")
	}
}
