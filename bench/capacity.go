package main

import "time"

const (
	// ladderRungs caps the capacity search; the last ladderBisections of
	// them refine the bracket the ×1.25 (or ×0.8) steps found.
	ladderRungs      = 8
	ladderBisections = 3
	ladderUp         = 1.25
	ladderDown       = 0.8
)

// capacitySearch returns the highest offered rate that passes, searching a
// ladder from start: steps of ×1.25 up while rungs pass, or ×0.8 down from
// a failing start until one passes, then bisection of the bracket between
// the highest pass and the lowest failure. It returns 0 when no rung
// passed; when no rung failed, the highest rate tried is a lower bound.
func capacitySearch(start float64, pass func(rate float64) bool) float64 {
	var lo, hi float64 // highest passing and lowest failing rate; 0 = none yet
	rungs := 0
	try := func(rate float64) {
		rungs++
		if pass(rate) {
			lo = rate
		} else {
			hi = rate
		}
	}
	try(start)
	for rungs < ladderRungs-ladderBisections && (lo == 0) != (hi == 0) {
		if hi == 0 {
			try(lo * ladderUp)
		} else {
			try(hi * ladderDown)
		}
	}
	for i := 0; i < ladderBisections && lo > 0 && hi > 0; i++ {
		try((lo + hi) / 2)
	}
	return lo
}

// rungPasses judges one rung of length dur against a latency limit: no
// failed request, a nearest-rank p99 from due time within the limit over
// the requests due after the warm-up, and every request done by the rung's
// end plus the limit, so no backlog was still growing.
func rungPasses(samples []sample, dur, warm, limit time.Duration) bool {
	var lat []float64
	for _, s := range samples {
		if s.err != nil || s.done > dur+limit {
			return false
		}
		if s.due >= warm {
			lat = append(lat, float64(s.latency()))
		}
	}
	p99, _ := nearestRank(lat, 99)
	return len(lat) > 0 && p99 <= float64(limit)
}
