package main

import (
	"fmt"
	"math"

	"crossfeature/internal/core"
	"crossfeature/internal/ml"
	"crossfeature/internal/serve"
)

// reference is the in-process oracle for served verdicts: the same bundle
// run through the tree's public functions — LoadBundleFile, Compile,
// Discretizer.Transform, ScoreAll or ScoreEvents, then one
// OnlineDetector.ObserveScore per record on a per-stream detector that
// starts cold, as the server's does.
type reference struct {
	bundle  *core.Bundle
	det     *core.Detector
	streams map[string]*core.OnlineDetector
}

func loadReference(path string) (*reference, error) {
	b, err := core.LoadBundleFile(path)
	if err != nil {
		return nil, err
	}
	b.Analyzer.Compile()
	return &reference{bundle: b, det: b.Detector(), streams: make(map[string]*core.OnlineDetector)}, nil
}

// expect returns the verdicts one request's items must receive, advancing
// the reference's stream detectors exactly as the server advances its own.
func (r *reference) expect(items []serve.ScoreRequest) ([][]serve.RecordResult, error) {
	var flat [][]int
	for _, it := range items {
		for _, rec := range it.Records {
			x, err := r.bundle.Discretizer.Transform(rec.Values)
			if err != nil {
				return nil, err
			}
			flat = append(flat, x)
		}
	}
	an := r.det.Analyzer
	var scores []float64
	if len(flat) == 1 {
		scores = an.ScoreEvents(flat, r.det.Scorer)
	} else {
		scores = an.ScoreAll(ml.DatasetOf(an.Attrs, flat), r.det.Scorer)
	}
	out := make([][]serve.RecordResult, len(items))
	k := 0
	for i, it := range items {
		od := r.streams[it.Stream]
		if od == nil {
			od = core.NewOnlineDetector(r.det)
			r.streams[it.Stream] = od
		}
		for _, rec := range it.Records {
			st := od.ObserveScore(scores[k])
			k++
			res := serve.RecordResult{
				Time:     rec.Time,
				Score:    st.Score,
				Smoothed: st.Smoothed,
				Anomaly:  st.Score < r.det.Threshold,
				Alarm:    st.Alarm,
				Raised:   st.Raised,
				Cleared:  st.Cleared,
			}
			if !finite(st.Score) {
				res.Score, res.Anomaly, res.Invalid = -1, true, true
			}
			if !finite(st.Smoothed) {
				res.Smoothed = -1
			}
			out[i] = append(out[i], res)
		}
	}
	return out, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// compareResults checks every field of every served verdict against the
// reference, scores bit for bit.
func compareResults(got, want [][]serve.RecordResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d items served, %d expected", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("item %d: %d results served, %d expected", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			g := got[i][j]
			if math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
				math.Float64bits(g.Smoothed) != math.Float64bits(w.Smoothed) ||
				g.Time != w.Time || g.Anomaly != w.Anomaly || g.Alarm != w.Alarm ||
				g.Raised != w.Raised || g.Cleared != w.Cleared || g.Invalid != w.Invalid {
				return fmt.Errorf("item %d record %d: served %+v, reference %+v", i, j, g, w)
			}
		}
	}
	return nil
}
