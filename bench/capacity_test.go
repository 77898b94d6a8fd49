package main

import (
	"errors"
	"testing"
	"time"
)

// TestCapacitySearch runs the ladder against a synthetic server that
// passes every rate up to its capacity: the result never exceeds the
// capacity, is within an eighth of the bracket the ×1.25 or ×0.8 steps
// found (three bisections), and takes at most eight rungs.
func TestCapacitySearch(t *testing.T) {
	const start = 20000
	for _, c := range []struct {
		capacity   float64
		want       float64
		resolution float64
	}{
		{37000, 36132.8125, (39062.5 - 31250) / 8},  // up: 20000, 25000, 31250 pass; 39062.5 fails
		{13000, 12800, (16000 - 12800) / 8},         // down: 20000, 16000 fail; 12800 passes
		{20000, 20000, (25000 - 20000) / 8},         // the start is the capacity
		{1e9, start * 1.25 * 1.25 * 1.25 * 1.25, 0}, // never fails: a lower bound after five rungs
		{1, 0, 0}, // never passes
	} {
		rungs := 0
		got := capacitySearch(start, func(rate float64) bool {
			rungs++
			return rate <= c.capacity
		})
		if got != c.want {
			t.Errorf("capacity %g: found %g, want %g", c.capacity, got, c.want)
		}
		if got > c.capacity || c.resolution > 0 && c.capacity-got > c.resolution {
			t.Errorf("capacity %g: found %g, outside resolution %g", c.capacity, got, c.resolution)
		}
		if rungs > ladderRungs {
			t.Errorf("capacity %g: %d rungs, cap %d", c.capacity, rungs, ladderRungs)
		}
	}
}

func TestRungPasses(t *testing.T) {
	ms := time.Millisecond
	dur, warm, limit := 100*ms, 20*ms, 10*ms
	ok := func(due, done time.Duration) sample { return sample{due: due, sent: due, done: done} }
	var fast []sample
	for i := 0; i < 100; i++ {
		d := time.Duration(i) * ms
		fast = append(fast, ok(d, d+2*ms))
	}
	if !rungPasses(fast, dur, warm, limit) {
		t.Error("a rung well inside the limit failed")
	}
	slow := append([]sample(nil), fast...)
	for i := 30; i < 32; i++ { // 2 of 80 measured samples over the limit: p99 misses
		slow[i].done = slow[i].due + 11*ms
	}
	if rungPasses(slow, dur, warm, limit) {
		t.Error("a rung whose p99 misses the limit passed")
	}
	warmOnly := append([]sample(nil), fast...)
	warmOnly[5].done = warmOnly[5].due + 50*ms // in the warm-up: not measured
	if !rungPasses(warmOnly, dur, warm, limit) {
		t.Error("a slow warm-up request failed the rung")
	}
	backlog := append([]sample(nil), fast...)
	backlog[99].done = dur + limit + ms
	if rungPasses(backlog, dur, warm, limit) {
		t.Error("a rung that ended with a backlog passed")
	}
	failed := append([]sample(nil), fast...)
	failed[50].err = errors.New("status 503")
	if rungPasses(failed, dur, warm, limit) {
		t.Error("a rung with a failed request passed")
	}
}
