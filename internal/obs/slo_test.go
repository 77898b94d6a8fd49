package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// fastBurnThreshold is the conventional page-worthy burn rate: spending
// ~2% of a 30-day error budget within one hour (the Google SRE workbook's
// 14.4x multiplier).
const fastBurnThreshold = 14.4

// sloClock drives an SLOMonitor deterministically.
type sloClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *sloClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *sloClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestSLO(objective float64) (*SLOMonitor, *sloClock) {
	m := NewSLOMonitor(objective)
	clk := &sloClock{now: time.Unix(1_700_000_000, 0)}
	m.now = clk.Now
	return m, clk
}

func TestSLOBurnRateBasics(t *testing.T) {
	m, _ := newTestSLO(0.99)
	if br := m.BurnRate(5 * time.Minute); br != 0 {
		t.Fatalf("empty monitor burn rate %v, want 0", br)
	}
	m.Observe(99, 100)
	// 1% bad over a 1% budget: burn rate exactly 1.
	if br := m.BurnRate(5 * time.Minute); math.Abs(br-1) > 1e-9 {
		t.Fatalf("burn rate %v, want 1", br)
	}
	m.Observe(0, 100) // all bad: window now 101/200 bad... good=99 total=200
	br := m.BurnRate(5 * time.Minute)
	want := (101.0 / 200.0) / 0.01
	if math.Abs(br-want) > 1e-9 {
		t.Fatalf("burn rate %v, want %v", br, want)
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	m, clk := newTestSLO(0.999)
	m.Observe(0, 50) // all bad
	if g, tot := m.GoodTotal(5 * time.Minute); g != 0 || tot != 50 {
		t.Fatalf("GoodTotal = %d/%d, want 0/50", g, tot)
	}
	clk.Advance(6 * time.Minute)
	if _, tot := m.GoodTotal(5 * time.Minute); tot != 0 {
		t.Fatalf("5m window still sees %d records after 6m", tot)
	}
	// The 1h window still covers it.
	if g, tot := m.GoodTotal(time.Hour); g != 0 || tot != 50 {
		t.Fatalf("1h GoodTotal = %d/%d, want 0/50", g, tot)
	}
	clk.Advance(time.Hour)
	if _, tot := m.GoodTotal(time.Hour); tot != 0 {
		t.Fatalf("1h window still sees %d records after expiry", tot)
	}
}

func TestSLOSlotReuseAfterHorizon(t *testing.T) {
	m, clk := newTestSLO(0.99)
	m.Observe(10, 10)
	// Land on the same slot one full horizon later: the stale epoch must
	// be reset, not accumulated.
	clk.Advance(sloWindowSlots * time.Second)
	m.Observe(0, 5)
	if g, tot := m.GoodTotal(time.Minute); g != 0 || tot != 5 {
		t.Fatalf("GoodTotal = %d/%d after slot reuse, want 0/5", g, tot)
	}
}

func TestSLOMultiWindowDivergence(t *testing.T) {
	m, clk := newTestSLO(0.99)
	// 50 minutes of clean traffic, then a 1-minute total outage.
	for i := 0; i < 50; i++ {
		m.Observe(100, 100)
		clk.Advance(time.Minute)
	}
	m.Observe(0, 100)
	short := m.BurnRate(5 * time.Minute)
	long := m.BurnRate(time.Hour)
	if short <= fastBurnThreshold {
		t.Fatalf("short-window burn %v should exceed the fast-burn threshold", short)
	}
	if long >= short {
		t.Fatalf("long-window burn %v should trail the short window %v", long, short)
	}
}

func TestSLOObjectiveClamp(t *testing.T) {
	for _, bad := range []float64{0, 1, -3, 2, math.NaN()} {
		if m := NewSLOMonitor(bad); m.Objective() != 0.99 {
			t.Fatalf("objective %v not clamped: %v", bad, m.Objective())
		}
	}
	if m := NewSLOMonitor(0.95); m.Objective() != 0.95 {
		t.Fatal("valid objective rejected")
	}
}

func TestSLONilSafe(t *testing.T) {
	var m *SLOMonitor
	m.Observe(1, 1)
	if g, tot := m.GoodTotal(time.Minute); g != 0 || tot != 0 {
		t.Fatal("nil monitor GoodTotal not inert")
	}
}

func TestSLOConcurrent(t *testing.T) {
	m, _ := newTestSLO(0.99)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Observe(1, 2)
			}
		}()
	}
	wg.Wait()
	if g, tot := m.GoodTotal(time.Minute); g != 8000 || tot != 16000 {
		t.Fatalf("GoodTotal = %d/%d, want 8000/16000", g, tot)
	}
}
