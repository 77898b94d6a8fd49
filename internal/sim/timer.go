package sim

// Timer is a cancellable scheduled callback. Protocol layers use timers for
// retransmissions, route lifetimes and periodic beacons; cancelling marks
// the event dead rather than removing it from the heap, which keeps
// scheduling O(log n).
type Timer struct {
	fn        func()
	cancelled bool
	fired     bool
}

// AfterFunc schedules fn to run after delay seconds and returns a handle
// that can cancel it before it fires. The handle is the only allocation:
// its event is scheduled closure-free.
func (e *Engine) AfterFunc(delay float64, fn func()) *Timer {
	t := &Timer{fn: fn}
	e.AtCall(e.after(delay), fireTimer, t, 0)
	return t
}

func fireTimer(arg any, _ int) {
	t := arg.(*Timer)
	if t.cancelled {
		return
	}
	t.fired = true
	t.fn()
}

// Cancel prevents the timer's callback from running. It reports whether the
// call actually stopped the timer (false if it already fired or was already
// cancelled).
func (t *Timer) Cancel() bool {
	if t.fired || t.cancelled {
		return false
	}
	t.cancelled = true
	return true
}

// Fired reports whether the callback has run.
func (t *Timer) Fired() bool { return t.fired }

// Ticker invokes fn every interval seconds until cancelled. The first tick
// fires after one full interval plus the optional jitter drawn once at
// creation (jitterFrac of the interval), which prevents network-wide beacon
// synchronisation just as ns-2 staggers HELLO timers.
type Ticker struct {
	eng       *Engine
	interval  float64
	fn        func()
	cancelled bool
}

// Tick schedules a periodic callback and returns a cancellation handle.
func (e *Engine) Tick(interval, jitterFrac float64, fn func()) *Ticker {
	tk := &Ticker{eng: e, interval: interval, fn: fn}
	first := interval
	if jitterFrac > 0 {
		first += interval * jitterFrac * e.rng.Float64()
	}
	e.AtCall(e.after(first), fireTicker, tk, 0)
	return tk
}

func fireTicker(arg any, _ int) {
	tk := arg.(*Ticker)
	if tk.cancelled {
		return
	}
	tk.fn()
	if tk.cancelled {
		return
	}
	tk.eng.AtCall(tk.eng.after(tk.interval), fireTicker, tk, 0)
}

// Cancel stops future ticks. Safe to call multiple times.
func (t *Ticker) Cancel() { t.cancelled = true }
