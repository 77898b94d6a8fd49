package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent is an oracle event: its callback boxed behind a pointer, as the
// container/heap engine held it.
type refEvent struct {
	at  float64
	seq uint64
	fn  func()
}

// oldQueue replicates the pre-refactor container/heap implementation to
// differentially test the hand-rolled value heap against it.
type oldQueue []*refEvent

func (q oldQueue) Len() int { return len(q) }
func (q oldQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q oldQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *oldQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *oldQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// refEngine is the oracle scheduler: the engine's clock, clamping, order
// and counters over a container/heap of boxed closures, with no slots.
type refEngine struct {
	now       float64
	seq       uint64
	q         oldQueue
	processed uint64
	highWater int
}

func (r *refEngine) at(t float64, fn func()) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	heap.Push(&r.q, &refEvent{at: t, seq: r.seq, fn: fn})
	if len(r.q) > r.highWater {
		r.highWater = len(r.q)
	}
}

func (r *refEngine) run(until float64) {
	for len(r.q) > 0 && r.q[0].at <= until {
		ev := heap.Pop(&r.q).(*refEvent)
		r.now = ev.at
		r.processed++
		ev.fn()
	}
	r.now = until
}

// scheduler is what the differential script drives: the engine under test
// or the oracle. Each schedules event id in one of three forms.
type scheduler interface {
	now() float64
	closure(t float64, id int)
	closureFree(t float64, id int)
	timer(t float64, id int) (cancel func())
}

type firing struct {
	id int
	at float64
}

// script is the differential workload's per-side state. On each firing
// it schedules up to three children, with delays on a coarse grid so many
// share an instant and order by sequence, across all three forms, and
// arms cancel events for half of its timers. Decisions hash the event id,
// so both sides take the same ones as long as they fire in the same order.
type script struct {
	log     []firing
	next    int // last id handed out
	limit   int
	cancels map[int]func()
}

func (sc *script) fire(s scheduler, id int) {
	sc.log = append(sc.log, firing{id, s.now()})
	if id < 0 { // a cancel event for timer -id
		sc.cancels[-id]()
		return
	}
	h := mix(uint64(id))
	for k := uint64(0); k < h%4 && sc.next < sc.limit; k++ {
		hk := mix(h + k + 1)
		sc.next++
		child := sc.next
		at := s.now() + float64(hk%8)*0.25
		switch (hk >> 8) % 3 {
		case 0:
			s.closure(at, child)
		case 1:
			s.closureFree(at, child)
		default:
			cancel := s.timer(at, child)
			if (hk>>16)%2 == 0 {
				sc.cancels[child] = cancel
				s.closure(s.now()+float64((hk>>24)%8)*0.25, -child)
			}
		}
	}
}

// mix is splitmix64's finaliser.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// engineSide drives the real engine through its slot and free-list path:
// At with closures, AtCall with a bound function, a pointer argument and
// an int payload, and AfterFunc timers.
type engineSide struct {
	e    *Engine
	sc   script
	call func(arg any, n int)
}

func (s *engineSide) now() float64              { return s.e.Now() }
func (s *engineSide) closure(t float64, id int) { s.e.At(t, func() { s.sc.fire(s, id) }) }
func (s *engineSide) closureFree(t float64, id int) {
	s.e.AtCall(t, s.call, s, id)
}
func (s *engineSide) timer(t float64, id int) func() {
	tm := s.e.AfterFunc(t-s.e.Now(), func() { s.sc.fire(s, id) })
	return func() { tm.Cancel() }
}

// refSide runs the same script on the oracle, every form a closure.
type refSide struct {
	r  refEngine
	sc script
}

func (s *refSide) now() float64                  { return s.r.now }
func (s *refSide) closure(t float64, id int)     { s.r.at(t, func() { s.sc.fire(s, id) }) }
func (s *refSide) closureFree(t float64, id int) { s.closure(t, id) }
func (s *refSide) timer(t float64, id int) func() {
	cancelled := false
	s.r.at(s.r.now+(t-s.r.now), func() {
		if !cancelled {
			s.sc.fire(s, id)
		}
	})
	return func() { cancelled = true }
}

func TestQueueMatchesContainerHeap(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		var nq eventQueue
		var oq oldQueue
		var seq uint64
		for round := 0; round < 200000; round++ {
			if len(nq) == 0 || rng.Intn(3) > 0 {
				seq++
				at := float64(rng.Intn(40)) + rng.Float64()
				nq.push(event{at: at, seq: seq})
				heap.Push(&oq, &refEvent{at: at, seq: seq})
			} else {
				a := nq.pop()
				b := heap.Pop(&oq).(*refEvent)
				if a.at != b.at || a.seq != b.seq {
					t.Fatalf("round %d: new=(%v,%d) old=(%v,%d)", round, a.at, a.seq, b.at, b.seq)
				}
			}
		}
	})
	// The engine end to end: slots, the free list, both scheduling forms
	// and cancelled timers must fire exactly what the oracle fires, at the
	// same instants, with the same Processed and QueueHighWater.
	t.Run("engine", func(t *testing.T) {
		for seed := int64(1); seed <= 12; seed++ {
			const roots, limit = 40, 15000
			es := &engineSide{e: New(seed), sc: script{next: roots, limit: limit, cancels: map[int]func(){}}}
			es.call = func(arg any, n int) { s := arg.(*engineSide); s.sc.fire(s, n) }
			rs := &refSide{sc: script{next: roots, limit: limit, cancels: map[int]func(){}}}
			rng := rand.New(rand.NewSource(seed))
			for id := 1; id <= roots; id++ {
				at := float64(rng.Intn(16)) * 0.5
				for _, s := range []scheduler{es, rs} {
					switch id % 3 {
					case 0:
						s.closure(at, id)
					case 1:
						s.closureFree(at, id)
					default:
						s.timer(at, id)
					}
				}
			}
			// Several horizons exercise stopping at and resuming from one.
			for _, until := range []float64{2, 7.25, 30, 1e6} {
				if err := es.e.Run(until); err != nil {
					t.Fatal(err)
				}
				rs.r.run(until)
				if len(es.sc.log) != len(rs.sc.log) {
					t.Fatalf("seed %d until %v: engine fired %d events, oracle %d",
						seed, until, len(es.sc.log), len(rs.sc.log))
				}
				for i := range es.sc.log {
					if es.sc.log[i] != rs.sc.log[i] {
						t.Fatalf("seed %d firing %d: engine %+v, oracle %+v",
							seed, i, es.sc.log[i], rs.sc.log[i])
					}
				}
				if es.e.Processed() != rs.r.processed || es.e.QueueHighWater() != rs.r.highWater ||
					es.e.Pending() != len(rs.r.q) {
					t.Fatalf("seed %d until %v: engine processed/high/pending %d/%d/%d, oracle %d/%d/%d",
						seed, until, es.e.Processed(), es.e.QueueHighWater(), es.e.Pending(),
						rs.r.processed, rs.r.highWater, len(rs.r.q))
				}
			}
			if es.sc.next < limit || len(es.sc.cancels) == 0 {
				t.Fatalf("seed %d: workload too small (%d ids, %d cancels)", seed, es.sc.next, len(es.sc.cancels))
			}
			// The free list recycles: the slab never outgrows the most
			// events ever pending at once.
			if len(es.e.slots) != es.e.QueueHighWater() {
				t.Errorf("seed %d: %d slots for a high-water mark of %d", seed, len(es.e.slots), es.e.QueueHighWater())
			}
		}
	})
}
