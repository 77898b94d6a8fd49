package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"crossfeature/internal/core"
	"crossfeature/internal/failpoint"
	"crossfeature/internal/obs"
)

// fpReload injects reload failures and stalls without needing a corrupt
// file on disk: error() exercises the keep-old-model path, delay() holds
// the reload lock to probe reload/serve independence.
var fpReload = failpoint.At("serve/reload")

// loadedModel is one immutable generation of the served model. Scoring
// paths grab the current generation once per request; a reload installs a
// new generation with a single pointer swap, so readers never see a model
// mid-replacement.
type loadedModel struct {
	bundle   *core.Bundle
	detector *core.Detector
	// fallback is the bundle's cheap NB detector, compiled at load for
	// brownout level-2 scoring; nil when the bundle carries none (NBC
	// primaries are already the cheap kernel).
	fallback *core.Detector
	version  uint64
	loadedAt time.Time
	// compile records the flat-form kernel build that ran at load time —
	// scoring requests never pay the compile, and /statz + /metrics
	// surface its cost and footprint.
	compile core.CompileStats
}

// modelHolder owns the hot-reload lifecycle: it loads bundles from a
// fixed path, fully validates them (snapshot header, checksum, gob
// payload, structural invariants) and only then swaps the atomic current
// pointer. A failed reload leaves the previous generation serving and
// records the failure for the readiness endpoint.
type modelHolder struct {
	path string
	cur  atomic.Pointer[loadedModel]

	mu       sync.Mutex // serialises reloads
	version  uint64
	reloads  *obs.Counter
	failures *obs.Counter

	// lastEvent is the most recent reload outcome (err empty on success)
	// with its timestamp, for /readyz and /statz.
	lastEvent atomic.Pointer[opEvent]
}

// newModelHolder builds the holder. reloads and failures count lifecycle
// outcomes — registry-bound in production, nil for a private counter.
func newModelHolder(path string, reloads, failures *obs.Counter) *modelHolder {
	if reloads == nil {
		reloads = obs.NewCounter()
	}
	if failures == nil {
		failures = obs.NewCounter()
	}
	return &modelHolder{path: path, reloads: reloads, failures: failures}
}

// reload loads, validates and atomically installs the bundle at the
// holder's path. On any failure the old model keeps serving.
func (h *modelHolder) reload() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	b, err := core.LoadBundleFile(h.path)
	if err == nil {
		err = fpReload.Hit()
	}
	if err != nil {
		h.failures.Inc()
		h.lastEvent.Store(&opEvent{err: err.Error(), at: time.Now()})
		return err
	}
	// Compile the analyzer's flat inference kernels once per generation,
	// before the swap, so no request pays the compile.
	cs := b.Analyzer.Compile()
	fb := b.FallbackDetector()
	if fb != nil {
		// The whole point of the fallback is cheap inference under
		// overload, so its kernels are compiled at load like the primary's.
		fb.Analyzer.Compile()
	}
	h.version++
	h.cur.Store(&loadedModel{
		bundle:   b,
		detector: b.Detector(),
		fallback: fb,
		version:  h.version,
		loadedAt: time.Now(),
		compile:  cs,
	})
	h.reloads.Inc()
	h.lastEvent.Store(&opEvent{at: time.Now()})
	return nil
}

// current returns the serving generation (nil only before the first
// successful load, which New treats as a startup error).
func (h *modelHolder) current() *loadedModel { return h.cur.Load() }

// lastError returns the most recent reload failure, or "" after a
// successful (re)load.
func (h *modelHolder) lastError() string {
	if ev := h.lastEvent.Load(); ev != nil {
		return ev.err
	}
	return ""
}
