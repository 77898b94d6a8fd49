package obs

// Multi-window SLO burn-rate tracking over within-SLO goodput, the
// Google-SRE alerting shape: the burn rate over a window is the observed
// bad-record fraction divided by the SLO's error budget (1 - objective).
// A burn rate of 1 spends the budget exactly at the sustainable pace; a
// rate of 14.4 exhausts a 30-day budget in two days. Alerting requires
// BOTH a short and a long window to burn hot, so a brief spike (short
// hot, long cool) and old history (long hot, short cool) both stay quiet.
// The monitor is observability only: nothing in the server reads it back
// as a control input.
//
// The monitor is a ring of per-second buckets. Observe is two atomic adds
// on the current second's slot plus one epoch check; BurnRate walks the
// window's slots at read time. Slots are reclaimed lazily: a slot whose
// stamped second has fallen out of the ring's horizon is reset by the
// next writer that lands on it, and readers skip slots outside their
// window. The resetting writer stamps the slot claimed before it zeroes
// the counters and publishes the new second only after, so a writer of
// the same second waits out the reset instead of adding to counters about
// to be zeroed.

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"
)

// sloWindowSlots is the ring horizon in seconds; windows beyond it are
// truncated (the monitor's longest supported window is one hour).
const sloWindowSlots = 3600

type sloSlot struct {
	sec         atomic.Int64
	good, total atomic.Uint64
}

// SLOMonitor tracks good/total outcomes over sliding windows. Construct
// with NewSLOMonitor; all methods are safe for concurrent use.
type SLOMonitor struct {
	objective float64
	slots     []sloSlot
	// now is injectable for tests.
	now func() time.Time
}

// NewSLOMonitor builds a monitor for the given availability objective
// (the target good fraction, e.g. 0.99). Objectives outside (0, 1) are
// clamped into it so the burn-rate division below is always finite.
func NewSLOMonitor(objective float64) *SLOMonitor {
	if !(objective > 0) || objective >= 1 {
		objective = 0.99
	}
	return &SLOMonitor{
		objective: objective,
		slots:     make([]sloSlot, sloWindowSlots),
		now:       time.Now,
	}
}

// Objective reports the configured good-fraction target.
func (m *SLOMonitor) Objective() float64 { return m.objective }

// sloClaimed is the epoch of a slot a writer is resetting. It lies before
// every window, so readers skip the slot meanwhile.
const sloClaimed = math.MinInt64

// slotFor returns the slot for second sec, resetting it first if its
// epoch is stale. The writer whose CAS claims a stale slot zeroes the
// counters and only then stamps sec; a writer that finds the slot claimed
// yields until the stamp lands, so no count is added before the reset.
func (m *SLOMonitor) slotFor(sec int64) *sloSlot {
	s := &m.slots[uint64(sec)%uint64(len(m.slots))]
	for {
		switch old := s.sec.Load(); {
		case old == sec:
			return s
		case old == sloClaimed:
			runtime.Gosched()
		case s.sec.CompareAndSwap(old, sloClaimed):
			s.good.Store(0)
			s.total.Store(0)
			s.sec.Store(sec)
			return s
		}
	}
}

// Observe records total outcomes of which good met the SLO.
func (m *SLOMonitor) Observe(good, total uint64) {
	if m == nil || total == 0 {
		return
	}
	s := m.slotFor(m.now().Unix())
	if good > 0 {
		s.good.Add(good)
	}
	s.total.Add(total)
}

// GoodTotal sums the window's outcomes ending now.
func (m *SLOMonitor) GoodTotal(window time.Duration) (good, total uint64) {
	if m == nil {
		return 0, 0
	}
	now := m.now().Unix()
	secs := int64(window / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > int64(len(m.slots)) {
		secs = int64(len(m.slots))
	}
	lo := now - secs + 1
	for i := range m.slots {
		s := &m.slots[i]
		sec := s.sec.Load()
		if sec < lo || sec > now {
			continue
		}
		// Re-check the epoch after reading the counters: a writer resetting
		// the slot between reads would hand us a half-zeroed pair, so a
		// changed epoch discards the reads.
		g, t := s.good.Load(), s.total.Load()
		if s.sec.Load() != sec {
			continue
		}
		good += g
		total += t
	}
	return good, total
}

// BurnRate reports the window's error-budget burn rate: bad fraction over
// (1 - objective). Zero when the window saw no traffic.
func (m *SLOMonitor) BurnRate(window time.Duration) float64 {
	good, total := m.GoodTotal(window)
	if total == 0 {
		return 0
	}
	badFrac := float64(total-good) / float64(total)
	return badFrac / (1 - m.objective)
}
