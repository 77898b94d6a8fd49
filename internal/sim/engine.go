// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of scheduled
// events. Events scheduled for the same instant fire in scheduling order,
// which together with explicit seeding makes every run reproducible. All
// simulation subsystems (mobility, radio, routing, traffic, attacks) hang
// off a single Engine, mirroring the single-threaded event loop of ns-2.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrStopped is returned by Run when the engine was halted via Stop before
// the horizon was reached.
var ErrStopped = errors.New("sim: engine stopped")

// event is one heap entry: when a callback fires, its scheduling order
// and the slot of Engine.slots that holds it. It carries no pointers, so
// sifting entries through the heap never runs a GC write barrier and the
// collector never scans the heap's backing array.
type event struct {
	at   float64
	seq  uint64
	slot int32
}

// callback is a scheduled function, parked in the engine's slot slab while
// its event is pending. Exactly one of fn and call is set.
type callback struct {
	fn   func()
	call func(arg any, n int)
	arg  any
	n    int
}

// eventQueue is a binary min-heap of event values ordered by (time,
// sequence). It is hand-rolled rather than built on container/heap so
// pushes and pops move plain struct values: no per-event heap allocation
// and no boxing of events through the `any` interface.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

// push inserts ev and restores the heap invariant (sift-up).
func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest event (sift-down).
func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h = h[:n]
	*q = h
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.less(right, left) {
			child = right
		}
		if !h.less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	return top
}

// Engine is a single-threaded discrete-event scheduler with a virtual clock
// measured in seconds. The zero value is not usable; construct with New.
type Engine struct {
	now       float64
	seq       uint64
	queue     eventQueue
	slots     []callback // callbacks of pending events, indexed by event.slot
	free      []int32    // slots whose event has fired, reused LIFO
	rng       *rand.Rand
	stopped   bool
	processed uint64
	highWater int
}

// New returns an engine whose random stream is seeded with seed. All
// stochastic simulation components must draw from Engine.Rand so that a
// scenario is fully determined by its seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Rand returns the engine's deterministic random stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed reports how many events have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending reports how many events are currently scheduled.
func (e *Engine) Pending() int { return len(e.queue) }

// QueueHighWater reports the largest number of events ever pending at
// once — the event queue's memory high-water mark, an observability
// signal for runaway scheduling (e.g. a broadcast storm).
func (e *Engine) QueueHighWater() int { return e.highWater }

// Schedule runs fn after delay seconds of virtual time. A negative delay is
// treated as zero (fire as soon as possible, after already-queued events at
// the current instant).
func (e *Engine) Schedule(delay float64, fn func()) {
	e.At(e.after(delay), fn)
}

// after is the absolute time delay seconds from now, a negative delay
// counting as zero.
func (e *Engine) after(delay float64) float64 {
	if delay < 0 {
		delay = 0
	}
	return e.now + delay
}

// At runs fn at absolute virtual time t. Times in the past are clamped to
// the current instant so the clock never moves backwards.
func (e *Engine) At(t float64, fn func()) {
	if fn == nil {
		return
	}
	e.push(t, callback{fn: fn})
}

// AtCall runs call(arg, n) at absolute virtual time t, with At's ordering
// and clamping. It is the closure-free way to schedule: call is bound once
// (a top-level function, or a method value built at construction) and arg
// is a pointer, so scheduling allocates nothing per event.
func (e *Engine) AtCall(t float64, call func(arg any, n int), arg any, n int) {
	if call == nil {
		return
	}
	e.push(t, callback{call: call, arg: arg, n: n})
}

// push parks cb in a free slot and queues its event at t.
func (e *Engine) push(t float64, cb callback) {
	if t < e.now {
		t = e.now
	}
	var slot int32
	if k := len(e.free); k > 0 {
		slot = e.free[k-1]
		e.free = e.free[:k-1]
	} else {
		slot = int32(len(e.slots))
		e.slots = append(e.slots, callback{})
	}
	e.slots[slot] = cb
	e.seq++
	e.queue.push(event{at: t, seq: e.seq, slot: slot})
	if n := len(e.queue); n > e.highWater {
		e.highWater = n
	}
}

// Stop halts a Run in progress after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events in timestamp order until the queue drains or the
// virtual clock would pass until. Events scheduled exactly at the horizon
// still fire. It returns ErrStopped if Stop was called.
func (e *Engine) Run(until float64) error {
	switch {
	case math.IsNaN(until):
		return errors.New("sim: horizon is NaN")
	case until < e.now:
		return fmt.Errorf("sim: horizon %v is before current time %v", until, e.now)
	}
	e.stopped = false
	for len(e.queue) > 0 {
		if e.stopped {
			return ErrStopped
		}
		if e.queue[0].at > until {
			break
		}
		next := e.queue.pop()
		cb := e.slots[next.slot]
		e.slots[next.slot] = callback{} // release the callback for GC
		e.free = append(e.free, next.slot)
		e.now = next.at
		e.processed++
		if cb.fn != nil {
			cb.fn()
		} else {
			cb.call(cb.arg, cb.n)
		}
	}
	e.now = until
	return nil
}
