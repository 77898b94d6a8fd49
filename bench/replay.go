package main

import (
	"time"

	"crossfeature/internal/core"
	"crossfeature/internal/ml"
	"crossfeature/internal/serve"
)

// replayBudget is how long each in-process layer replay repeats its call.
const replayBudget = 200 * time.Millisecond

// sink keeps replayed results alive so the compiler cannot drop the calls.
var sink any

// perUnit calls op until replayBudget has passed and returns the mean
// nanoseconds per unit of work, where one call does units units.
func perUnit(units int, op func()) float64 {
	start := time.Now()
	for n := 1; ; n++ {
		op()
		if el := time.Since(start); el >= replayBudget {
			return float64(el) / float64(n*units)
		}
	}
}

// replayLayers times the serving path's in-process layers on the
// workload's bundle and record pool through the tree's public functions:
// bundle load and kernel compile (what set-up pays), discretisation, the
// columnar batch kernel on 128-row batches, the row-major kernel on single
// rows, and the per-stream detector's construction and update.
func replayLayers(bundlePath string, pool []serve.Record, v map[string]float64) error {
	var loads, compiles []float64
	var b *core.Bundle
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		nb, err := core.LoadBundleFile(bundlePath)
		if err != nil {
			return err
		}
		t1 := time.Now()
		nb.Analyzer.Compile()
		if nb.Fallback != nil {
			nb.Fallback.Compile()
		}
		loads = append(loads, ms(t1.Sub(t0)))
		compiles = append(compiles, ms(time.Since(t1)))
		b = nb
	}
	v["core.bundle_load_ms"] = median(loads)
	v["core.compile_ms"] = median(compiles)

	det := b.Detector()
	an := det.Analyzer
	xs := make([][]int, len(pool))
	var err error
	v["features.transform_us_per_rec"] = perUnit(len(pool), func() {
		for i, r := range pool {
			if xs[i], err = b.Discretizer.Transform(r.Values); err != nil {
				return
			}
		}
	}) / 1e3
	if err != nil {
		return err
	}

	const batch = 128
	off := 0
	v["core.score_all_us_per_rec"] = perUnit(batch, func() {
		rows := make([][]int, batch)
		for i := range rows {
			rows[i] = xs[(off+i)%len(xs)]
		}
		off += batch
		// A fresh dataset per call, as each request builds: its columnar
		// view is never cached across calls.
		sink = an.ScoreAll(ml.DatasetOf(an.Attrs, rows), det.Scorer)
	}) / 1e3
	off = 0
	v["core.score_events_us_per_rec"] = perUnit(1, func() {
		sink = an.ScoreEvents(xs[off%len(xs):off%len(xs)+1], det.Scorer)
		off++
	}) / 1e3

	scores := an.ScoreEvents(xs, det.Scorer)
	od := core.NewOnlineDetector(det)
	raised := 0
	v["core.observe_ns_per_rec"] = perUnit(len(scores), func() {
		for _, s := range scores {
			if od.ObserveScore(s).Raised {
				raised++
			}
		}
	})
	sink = raised
	const detectors = 1000
	v["core.new_detector_ns"] = perUnit(detectors, func() {
		for i := 0; i < detectors; i++ {
			sink = core.NewOnlineDetector(det)
		}
	})
	return nil
}
