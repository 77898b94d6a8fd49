package main

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a fake request
// takes service time. Tests drive it from one connection, so it needs no
// locking.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

// TestOpenLoopChargesStallToLaterRequests stalls one request on the only
// connection: the requests due behind it wait in the FIFO, and their
// latency, measured from when each was due, carries the stall.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms, 200 * ms}
	service := []time.Duration{5 * ms, 100 * ms, 5 * ms, 5 * ms, 5 * ms, 5 * ms}
	clk := &fakeClock{}
	got := openLoop(clk, due, 1, func(i int, s *sample) { clk.t += service[i] })
	want := []struct{ latency, lateness time.Duration }{
		{5 * ms, 0},
		{100 * ms, 0},
		{95 * ms, 90 * ms}, // due 20, sent at 110 when the stall ends
		{90 * ms, 85 * ms},
		{85 * ms, 80 * ms},
		{5 * ms, 0}, // the backlog has drained by 200
	}
	for i, w := range want {
		if got[i].latency() != w.latency || got[i].lateness() != w.lateness {
			t.Errorf("request %d: latency %v lateness %v, want %v and %v",
				i, got[i].latency(), got[i].lateness(), w.latency, w.lateness)
		}
	}
}

// TestFailedRequestsCountAgainstTheMetrics fails one request in four: it
// must raise the latency percentiles, never lower them, and score none of
// its records, so a server that sheds part of its load cannot read faster
// or cheaper for it.
func TestFailedRequestsCountAgainstTheMetrics(t *testing.T) {
	ms := time.Millisecond
	var ss []sample
	for i := 0; i < 8; i++ {
		s := sample{due: 0, done: time.Duration(i+1) * ms}
		if i%4 == 0 {
			s.err = errors.New("status 429")
		}
		ss = append(ss, s)
	}
	lat := latenciesMS(ss)
	// 2,3,4,6,7,8 ms and two failures ranked above them: the 4th of 8 is 6,
	// where dropping the failures would give 4.
	if p50 := median(lat); p50 != 6 {
		t.Errorf("p50 %v ms, want 6", p50)
	}
	if p99, _ := nearestRank(lat, 99); !math.IsInf(p99, 1) {
		t.Errorf("p99 %v, want +Inf: it lands on a failed request", p99)
	}
	r := &serveRun{sh: &serveShape{items: 16, records: 8}}
	if got := r.scoredRecords(ss); got != 6*128 {
		t.Errorf("scored %v records, want %d", got, 6*128)
	}
}

func TestPoissonDue(t *testing.T) {
	a := poissonDue(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	b := poissonDue(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	if len(a) != len(b) || a[len(a)/2] != b[len(b)/2] {
		t.Fatal("same seed gave different schedules")
	}
	if len(a) < 9700 || len(a) > 10300 {
		t.Errorf("%d arrivals at 1000/s over 10s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v out of order or range", i, a[i])
		}
	}
}
