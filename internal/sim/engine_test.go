package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRunProcessesInTimeOrder(t *testing.T) {
	e := New(1)
	var got []float64
	for _, d := range []float64{5, 1, 3, 2, 4} {
		d := d
		e.Schedule(d, func() { got = append(got, e.Now()) })
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(got) {
		t.Errorf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Errorf("fired %d events, want 5", len(got))
	}
	if e.Now() != 10 {
		t.Errorf("clock at %v after Run(10)", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 20; i++ {
		i := i
		e.Schedule(1, func() { got = append(got, i) })
	}
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestHorizonExcludesLaterEvents(t *testing.T) {
	e := New(1)
	fired := 0
	e.Schedule(1, func() { fired++ })
	e.Schedule(5, func() { fired++ })
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired %d events before horizon 3, want 1", fired)
	}
	if e.Pending() != 1 {
		t.Errorf("pending %d, want 1", e.Pending())
	}
	// The later event fires on a subsequent Run.
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("fired %d total, want 2", fired)
	}
}

func TestEventAtExactHorizonFires(t *testing.T) {
	e := New(1)
	fired := false
	e.At(3, func() { fired = true })
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event scheduled exactly at the horizon did not fire")
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := New(1)
	at := -1.0
	e.Schedule(2, func() {
		e.Schedule(-5, func() { at = e.Now() })
	})
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if at != 2 {
		t.Errorf("negative delay fired at %v, want 2", at)
	}
}

func TestAtInPastClampsToNow(t *testing.T) {
	e := New(1)
	at := -1.0
	e.Schedule(4, func() {
		e.At(1, func() { at = e.Now() })
	})
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if at != 4 {
		t.Errorf("past At fired at %v, want clock hold at 4", at)
	}
}

func TestRunBackwardsErrors(t *testing.T) {
	e := New(1)
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(3); err == nil {
		t.Error("Run with horizon in the past should error")
	}
}

// TestRunRejectsNaNHorizon: NaN compares false against the clock, so a NaN
// horizon used to slip past the backwards check and never end the run.
func TestRunRejectsNaNHorizon(t *testing.T) {
	e := New(1)
	e.Tick(1, 0, func() {})
	if err := e.Run(math.NaN()); err == nil {
		t.Error("Run(NaN) should error")
	}
	if e.Processed() != 0 {
		t.Errorf("Run(NaN) fired %d events", e.Processed())
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	fired := 0
	e.Schedule(1, func() {
		fired++
		e.Stop()
	})
	e.Schedule(2, func() { fired++ })
	err := e.Run(10)
	if err != ErrStopped {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	if fired != 1 {
		t.Errorf("fired %d after Stop, want 1", fired)
	}
}

func TestNilCallbackIgnored(t *testing.T) {
	e := New(1)
	e.At(1, nil)
	if e.Pending() != 0 {
		t.Error("nil callback was queued")
	}
}

func TestQueueHighWater(t *testing.T) {
	e := New(1)
	for i := 0; i < 10; i++ {
		e.At(float64(i), func() {})
	}
	if hw := e.QueueHighWater(); hw != 10 {
		t.Errorf("high water = %d, want 10", hw)
	}
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	// Draining the queue must not lower the recorded peak.
	if e.Pending() != 0 || e.QueueHighWater() != 10 {
		t.Errorf("after run: pending %d, high water %d", e.Pending(), e.QueueHighWater())
	}
}

func TestCascadedScheduling(t *testing.T) {
	e := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.Schedule(0.5, recurse)
		}
	}
	e.Schedule(0, recurse)
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if depth != 100 {
		t.Errorf("cascade reached depth %d, want 100", depth)
	}
	if e.Processed() != 100 {
		t.Errorf("processed %d, want 100", e.Processed())
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

// TestQuickTimeOrdering is a property test: any batch of random delays is
// processed in non-decreasing time order.
func TestQuickTimeOrdering(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		e := New(seed)
		rng := rand.New(rand.NewSource(seed))
		var fired []float64
		for range raw {
			e.Schedule(rng.Float64()*100, func() { fired = append(fired, e.Now()) })
		}
		if err := e.Run(200); err != nil {
			return false
		}
		return sort.Float64sAreSorted(fired) && len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTimerCancel(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.AfterFunc(2, func() { fired = true })
	e.Schedule(1, func() {
		if !tm.Cancel() {
			t.Error("first Cancel should succeed")
		}
		if tm.Cancel() {
			t.Error("second Cancel should report false")
		}
	})
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled timer fired")
	}
}

func TestTimerFires(t *testing.T) {
	e := New(1)
	tm := e.AfterFunc(2, func() {})
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if !tm.Fired() {
		t.Error("timer did not fire")
	}
	if tm.Cancel() {
		t.Error("Cancel after firing should report false")
	}
}

func TestTickerPeriodic(t *testing.T) {
	e := New(1)
	ticks := 0
	tk := e.Tick(1, 0, func() { ticks++ })
	if err := e.Run(10.5); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Errorf("got %d ticks in 10.5s at 1Hz, want 10", ticks)
	}
	tk.Cancel()
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Errorf("ticker kept firing after Cancel: %d", ticks)
	}
}

func TestTickerJitterStaggersFirstTick(t *testing.T) {
	e := New(1)
	var first []float64
	for i := 0; i < 10; i++ {
		e.Tick(1, 1.0, func() {})
	}
	_ = first
	// All first ticks must land in (1, 2]; verify via pending count after 1s
	// and after 2s.
	if err := e.Run(0.999); err != nil {
		t.Fatal(err)
	}
	if e.Processed() != 0 {
		t.Errorf("jittered tickers fired before one interval: %d", e.Processed())
	}
	if err := e.Run(2.01); err != nil {
		t.Fatal(err)
	}
	if e.Processed() < 10 {
		t.Errorf("only %d first ticks within jitter window", e.Processed())
	}
}

// TestQueueHeapOrder stress-tests the hand-rolled event heap directly:
// random interleaved pushes and pops must always yield events in strict
// (time, sequence) order.
func TestQueueHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	var seq uint64
	var popped []event
	for round := 0; round < 2000; round++ {
		if len(q) == 0 || rng.Intn(3) > 0 {
			seq++
			q.push(event{at: float64(rng.Intn(50)), seq: seq})
		} else {
			popped = append(popped, q.pop())
		}
	}
	for len(q) > 0 {
		popped = append(popped, q.pop())
	}
	if len(popped) != int(seq) {
		t.Fatalf("popped %d events, pushed %d", len(popped), seq)
	}
	// Each pop returns the minimum of what was in the queue at that moment,
	// so a pop may legitimately precede a later-pushed smaller event; verify
	// instead against a replayed reference: same-time events keep sequence
	// order and within any drain-run times are non-decreasing.
	for i := 1; i < len(popped); i++ {
		if popped[i].at == popped[i-1].at && popped[i].seq < popped[i-1].seq {
			prev, cur := popped[i-1], popped[i]
			// Only a violation if both were in the queue together, which
			// same-instant events pushed before either pop always are when
			// sequence decreases across an equal-time pair popped back to
			// back from one drain; the heap must never emit that.
			t.Fatalf("same-instant events reordered: (%v,%d) before (%v,%d)",
				prev.at, prev.seq, cur.at, cur.seq)
		}
	}
}

// TestQueueDrainSorted drains a fully pre-populated queue and checks the
// total (time, sequence) order, the strongest guarantee the heap makes.
func TestQueueDrainSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var q eventQueue
	for i := 0; i < 5000; i++ {
		q.push(event{at: float64(rng.Intn(100)), seq: uint64(i)})
	}
	prev := event{at: -1}
	for len(q) > 0 {
		ev := q.pop()
		if ev.at < prev.at || (ev.at == prev.at && ev.seq < prev.seq) {
			t.Fatalf("heap order violated: (%v,%d) after (%v,%d)", ev.at, ev.seq, prev.at, prev.seq)
		}
		prev = ev
	}
}

// BenchmarkScheduleRun measures raw event-loop throughput: the cost of
// scheduling and dispatching one event, including queue maintenance. The
// value-based heap keeps this allocation-free apart from slice growth.
func BenchmarkScheduleRun(b *testing.B) {
	e := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, fn)
		if i%1024 == 1023 {
			if err := e.Run(e.Now() + 2); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestTickerCancelInsideCallback(t *testing.T) {
	e := New(1)
	ticks := 0
	var tk *Ticker
	tk = e.Tick(1, 0, func() {
		ticks++
		if ticks == 3 {
			tk.Cancel()
		}
	})
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if ticks != 3 {
		t.Errorf("got %d ticks, want 3 (cancelled from callback)", ticks)
	}
}
