package serve

// Adaptive overload control. The static admission gate (admit.go) sheds
// whatever exceeds a fixed record budget; this file makes the budget —
// and the cost of a verdict — adapt to what the service can actually
// sustain. Two mechanisms, one controller:
//
//   - AIMD record-budget limiting: each controller tick classifies the
//     service as hot (shedding, or the projected queue-drain time exceeds
//     the overload target) or calm. Hot ticks halve the record budget
//     toward a floor of one maximum batch (multiplicative decrease, so a
//     saturated queue collapses to a survivable depth within a few
//     ticks); calm ticks creep it back up additively. The budget prices
//     admission in units of work, so this is a concurrency limiter in
//     records rather than requests.
//
//   - Brownout: under *sustained* overload the service gives up work
//     stepwise instead of shedding harder — level 1 drops
//     Explain-style extras (per-feature metrics), level 2 keeps them off
//     and is the last dwell before shedding, level 3 additionally
//     sample-and-sheds at the door, admitting one request in admitEvery.
//     The fraction is itself adaptive: hot ticks widen the stride
//     multiplicatively, calm ticks narrow it by one, so the door matches
//     whatever the overload ratio turns out to be — a fixed 50% cannot
//     survive a 10x storm, because the un-shed half still buys a body
//     decode each. Entry takes BrownoutEnterAfter consecutive hot ticks
//     and exit BrownoutExitAfter consecutive calm ticks (exit slower than
//     entry), so the level ratchets with hysteresis instead of flapping
//     at the boundary; level 3 additionally refuses to exit until the
//     stride has unwound to its minimum, because a wide-open door after a
//     premature exit just re-admits the storm. Degraded verdicts are
//     explicit: an X-CFA-Degraded header and a "degraded" response field
//     name the mode, so a client can always tell a full verdict from a
//     brownout one. No level changes the scores: every level scores
//     through the bundle's one analyzer and keeps per-stream
//     EWMA/hysteresis state.
//
//     The controller's evidence is involuntary shedding (queue or budget
//     overflow, gate refusals, queue timeouts) and the projected
//     queue-drain time — never its own sample-sheds, which would make
//     level 3 self-sustaining.

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"sync/atomic"

	"crossfeature/internal/failpoint"
	"crossfeature/internal/obs"
)

// fpBrownout forces controller transitions without real load, for the
// chaos tests: error(hot) pins the tick's overload signal high, error(calm)
// pins it low — both still run the entry/exit hysteresis — and error(N)
// for N in [0,3] jumps straight to level N.
var fpBrownout = failpoint.At("serve/brownout")

// Brownout levels, in degradation order. Each level includes everything
// the previous ones gave up.
const (
	brownoutOff      = iota // full service
	brownoutNoExtras        // skip Explain-style extras (per-feature metrics)
	brownoutPreShed         // extras still off; the last dwell before shedding
	brownoutShedding        // extras off plus sample-and-shed at admission
)

// brownoutMaxLevel is the deepest degradation level.
const brownoutMaxLevel = brownoutShedding

// degradedMode names the degradation a response was served under, for the
// X-CFA-Degraded header and the "degraded" response field. Empty at full
// service; scores never degrade, so every level reports extras off, plus
// shedding at level 3.
func degradedMode(lvl int) string {
	switch {
	case lvl <= brownoutOff:
		return ""
	case lvl >= brownoutShedding:
		return "extras-off+shed"
	}
	return "extras-off"
}

// overloadController runs the AIMD budget and the brownout level state
// machine. All decisions happen on tick(), driven by run()'s ticker in
// production and called directly by tests; the scoring paths only read
// the atomic level and the sample counter.
type overloadController struct {
	adm  *admitter
	met  *serverMetrics
	logf func(format string, args ...any)

	// event, when set, records level transitions into the flight
	// recorder; slo, when set, contributes burn-rate evidence to the
	// overload signal (both optional, wired by New).
	event func(kind, detail string)
	slo   *obs.SLOMonitor

	// target is the projected queue-drain time past which a tick counts
	// as hot; tickEvery the controller cadence.
	target    time.Duration
	tickEvery time.Duration
	// enterAfter/exitAfter are the hysteresis dwell times in consecutive
	// ticks.
	enterAfter, exitAfter int
	// minBudget/maxBudget clamp the AIMD record budget; step is the
	// additive-increase increment per calm tick.
	minBudget, maxBudget int64
	step                 int64

	lvl       atomic.Int32
	sampleCtr atomic.Uint64
	// admitEvery is level 3's sample-shed stride: admit one request of
	// every admitEvery, shed the rest at the door. Clamped to
	// [sampleStrideMin, sampleStrideMax]; dormant below level 3. It is
	// deliberately NOT reset on entering level 3, so a storm that bounces
	// the level resumes near the stride that last held it.
	admitEvery atomic.Int64

	// Controller-goroutine state (tick is never called concurrently).
	// hot/calm are the hysteresis dwell counters (hot resets each time a
	// dwell completes); hotRun counts consecutive shed-hot ticks
	// regardless of dwell resets, for the stride's probe-then-escalate
	// growth.
	hot, calm, hotRun int
	lastShed, lastReq uint64
	lastBudgetShed    uint64
}

// hotShedFraction is the involuntary-shed rate past which a tick counts
// as hot: sheds in the interval at or above this fraction of the
// interval's requests. A bounded queue at high utilisation overflows on
// ordinary Poisson bursts; one shed among hundreds of served requests is
// a queue doing its job, not an overload, and a controller that treats
// it as one ratchets the shed stride far past the real overload ratio
// and starves the service it is protecting.
const hotShedFraction = 0.05

// Level 3's admit-stride clamp: at the minimum every other request is
// admitted (the mildest sample-shed worth the name), at the maximum one
// in 64 — past that the door is effectively closed and harder shedding
// belongs to the gate, not the sampler.
const (
	sampleStrideMin = 2
	sampleStrideMax = 64
)

func newOverloadController(adm *admitter, met *serverMetrics, cfg Config) *overloadController {
	// The budget floor is one maximum batch per scoring slot: any lower
	// and the budget serializes batches through a subset of the slots —
	// multiplicative decrease must never cut actual parallelism, only
	// queueing.
	minBudget := int64(cfg.MaxBatchRecords) * adm.concurrent
	if minBudget > cfg.MaxQueueRecords {
		minBudget = cfg.MaxQueueRecords
	}
	if minBudget < 1 {
		minBudget = 1
	}
	step := cfg.MaxQueueRecords / 64
	if step < 1 {
		step = 1
	}
	c := &overloadController{
		adm:        adm,
		met:        met,
		logf:       cfg.Logf,
		target:     cfg.OverloadTarget,
		tickEvery:  cfg.BrownoutTick,
		enterAfter: cfg.BrownoutEnterAfter,
		exitAfter:  cfg.BrownoutExitAfter,
		minBudget:  minBudget,
		maxBudget:  cfg.MaxQueueRecords,
		step:       step,
	}
	c.admitEvery.Store(sampleStrideMin)
	return c
}

// level reports the current brownout level.
func (c *overloadController) level() int { return int(c.lvl.Load()) }

// run drives the controller until ctx is cancelled.
func (c *overloadController) run(ctx context.Context) {
	t := time.NewTicker(c.tickEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.tick()
		}
	}
}

// tick classifies the interval since the last tick and applies one AIMD
// and one hysteresis step. Not safe for concurrent calls (run is the only
// production caller).
func (c *overloadController) tick() {
	if err := fpBrownout.Hit(); err != nil {
		// The directive is the failpoint's error(...) message, after the
		// "injected failure at <name>: " prefix Hit wraps it in.
		msg := err.Error()
		if i := strings.LastIndex(msg, ": "); i >= 0 {
			msg = msg[i+2:]
		}
		switch msg {
		case "hot":
			c.observe(tickEvidence{hot: true, shedHot: true, budgetHot: true})
			return
		case "calm":
			c.observe(tickEvidence{})
			return
		default:
			if n, aerr := strconv.Atoi(msg); aerr == nil && n >= brownoutOff && n <= brownoutMaxLevel {
				c.force(int32(n))
				return
			}
		}
		// Unrecognised directive: fall through to the real signal so a
		// typo'd spec degrades to a no-op rather than wedging the level.
	}
	c.observe(c.overloadSignal())
}

// tickEvidence is one tick's overload evidence, split by which control
// loop may act on it. Three loops share the same counters, and each must
// be blind to its own throttling or it feeds itself:
//
//   - hot (any evidence) drives the level hysteresis.
//   - shedHot (congestion sheds crossed the fraction) drives the level-3
//     sample stride; latency flicker must not widen the door.
//   - budgetHot (shed congestion or latency pressure) drives the
//     record-budget AIMD.
//
// "Congestion sheds" are queue-full, queue-timeout and gate refusals.
// Sheds that bounced off a *lowered* adaptive record budget are excluded
// from every signal: they are the budget enforcing the latency bound the
// AIMD chose — the actuator, not a sensor — and feeding them back in
// ratchets whichever loop listens (the budget halves itself to the
// floor, or the stride climbs until goodput is a trickle).
type tickEvidence struct {
	hot, shedHot, budgetHot bool
}

// overloadSignal reads the interval's overload evidence: involuntary
// shedding since the last tick, a pre-decode handler pile-up, or a
// committed record backlog whose projected drain time (EWMA per-record
// cost times backlog over parallelism) exceeds the target. Deliberate
// sample-sheds are not evidence of any kind — the controller must not
// cite its own decisions as proof they are still needed, or level 3
// never ends.
func (c *overloadController) overloadSignal() tickEvidence {
	shed := c.adm.unwantedShed()
	bshed := c.adm.budgetOverflowShed()
	req := c.met.requests.Value()
	congDelta := (shed - c.lastShed) - (bshed - c.lastBudgetShed)
	reqDelta := req - c.lastReq
	c.lastShed, c.lastBudgetShed, c.lastReq = shed, bshed, req

	var ev tickEvidence
	if congDelta > 0 && float64(congDelta) >= hotShedFraction*float64(reqDelta) {
		ev.hot, ev.shedHot, ev.budgetHot = true, true, true
	}
	// Handlers piled up ahead of admission — requests still decoding
	// their bodies — are overload evidence the committed-backlog
	// projection below cannot see, precisely because they have not been
	// admitted yet. The threshold is three quarters of the in-flight
	// gate's capacity: the point where the next burst starts bouncing off
	// the gate. Anything lower reads ordinary handler concurrency (a
	// crowd of requests mid-write easily exceeds the post-decode queue's
	// depth) as a storm and never calms down. At level 3 this signal is
	// skipped outright: sample-shed 429s are themselves in-flight
	// requests, and cheap rejections flow fast enough to keep the count
	// high — the controller would once again be citing its own shedding
	// as proof it must keep shedding. The gate's refusals still land in
	// the involuntary-shed fraction above, so the cliff stays covered.
	if c.lvl.Load() < brownoutShedding &&
		c.adm.inflightRequests() > c.adm.maxInflight-c.adm.maxInflight/4 {
		ev.hot, ev.budgetHot = true, true
	}
	if per := c.adm.perRecordNanos(); per > 0 {
		drainNanos := per * float64(c.adm.recordDepth()) / float64(c.adm.concurrent)
		if drainNanos > float64(c.target.Nanoseconds()) {
			ev.hot, ev.budgetHot = true, true
		}
	}
	// SLO-burn evidence (opt-in, -slo-evidence): when BOTH alerting
	// windows burn past the fast-burn threshold, the error budget is
	// disappearing on the timescale operators page on — count it as
	// latency pressure even if the queue projection looks fine (slow
	// responses that still answer in time to dodge the drain check burn
	// budget without tripping either signal above). Requiring the long
	// window too keeps a brief spike — or the controller's own shedding
	// during a single hot dwell — from self-sustaining the signal.
	if c.slo != nil &&
		c.slo.BurnRate(5*time.Minute) >= obs.FastBurnThreshold &&
		c.slo.BurnRate(time.Hour) >= obs.FastBurnThreshold {
		ev.hot, ev.budgetHot = true, true
	}
	return ev
}

// observe applies one controller step: the AIMD budget move immediately
// (on its own budgetHot signal), the brownout level only after the
// hysteresis dwell (on any evidence). At level 3 the sample-shed stride
// runs its own inverse AIMD — shed-hot ticks widen it (shed a larger
// fraction), fully-calm ticks narrow it by one, and hot-but-not-shedding
// ticks leave it alone: the budget keeps reacting to latency pressure
// while the door holds its width until real refusals say otherwise. A
// stride still above its minimum holds the level: unwinding the door
// comes before reopening it.
func (c *overloadController) observe(ev tickEvidence) {
	atShedding := c.lvl.Load() >= brownoutShedding
	if ev.budgetHot {
		b := c.adm.recordBudget() / 2
		if b < c.minBudget {
			b = c.minBudget
		}
		c.adm.setRecordBudget(b)
	} else {
		b := c.adm.recordBudget() + c.step
		if b > c.maxBudget {
			b = c.maxBudget
		}
		c.adm.setRecordBudget(b)
	}
	if ev.shedHot {
		c.hotRun++
	} else {
		c.hotRun = 0
	}
	if atShedding && ev.shedHot {
		k := c.admitEvery.Load()
		if c.hotRun == 1 {
			// First shed-hot tick after a quiet spell: an additive
			// probe. On a shared-CPU box a client burst steals the
			// core for a few milliseconds and the resulting queue
			// blip is indistinguishable from the front of a storm;
			// paying ×1.5 stride for every such blip ratchets the
			// door shut far past the real overload ratio. Only
			// *consecutive* shed-hot ticks — overflow that outlives
			// a scheduling hiccup — escalate multiplicatively.
			k++
		} else {
			k += max(int64(1), k/2)
		}
		if k > sampleStrideMax {
			k = sampleStrideMax
		}
		c.admitEvery.Store(k)
	}
	if ev.hot {
		c.calm = 0
		c.hot++
		if c.hot >= c.enterAfter {
			c.hot = 0
			c.shift(+1, "sustained overload")
		}
		return
	}
	c.hot = 0
	if atShedding {
		if k := c.admitEvery.Load(); k > sampleStrideMin {
			c.admitEvery.Store(k - 1)
			c.calm = 0 // still unwinding the stride: not yet exit-dwell calm
			return
		}
	}
	c.calm++
	if c.calm >= c.exitAfter {
		c.calm = 0
		c.shift(-1, "load cleared")
	}
}

// shift moves the level by delta, clamped to [0, max], counting and
// logging real transitions.
func (c *overloadController) shift(delta int32, why string) {
	for {
		old := c.lvl.Load()
		next := old + delta
		if next < brownoutOff {
			next = brownoutOff
		}
		if next > brownoutMaxLevel {
			next = brownoutMaxLevel
		}
		if next == old {
			return
		}
		if c.lvl.CompareAndSwap(old, next) {
			c.met.brownoutTransitions.Inc()
			c.logf("serve: brownout level %d -> %d (%s; record budget %d)",
				old, next, why, c.adm.recordBudget())
			if c.event != nil {
				c.event("brownout", fmt.Sprintf("level %d -> %d (%s)", old, next, why))
			}
			return
		}
	}
}

// force pins the level directly (failpoint-driven transitions). Unlike
// organic entry, forcing also resets the sample stride to its minimum so
// a chaos run gets the documented one-in-two shed, not whatever stride a
// previous storm left behind.
func (c *overloadController) force(lvl int32) {
	old := c.lvl.Swap(lvl)
	if old != lvl {
		c.met.brownoutTransitions.Inc()
		c.logf("serve: brownout level %d -> %d (forced by failpoint)", old, lvl)
		if c.event != nil {
			c.event("brownout", fmt.Sprintf("level %d -> %d (forced by failpoint)", old, lvl))
		}
	}
	c.hot, c.calm, c.hotRun = 0, 0, 0
	c.admitEvery.Store(sampleStrideMin)
}

// sampleStride reports the live admit-one-in-N stride (meaningful at
// level 3; dormant otherwise).
func (c *overloadController) sampleStride() int64 { return c.admitEvery.Load() }

// shedSample reports whether this request should be sample-shed: at
// level 3 one request in admitEvery is admitted and the rest are turned
// away at the door, so the survivors see a service that still answers.
// The rotation is a shared counter, not a coin flip — the admitted
// fraction is exact under any interleaving.
func (c *overloadController) shedSample() bool {
	if c.lvl.Load() < brownoutShedding {
		return false
	}
	k := c.admitEvery.Load()
	if k < sampleStrideMin {
		k = sampleStrideMin
	}
	return c.sampleCtr.Add(1)%uint64(k) != 1
}
