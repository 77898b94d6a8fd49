package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// OnlineDetector wraps a Detector for streaming deployment on a live
// audit feed: scores are smoothed with an exponentially weighted moving
// average and an alarm requires several consecutive sub-threshold records
// before raising, so single noisy snapshots do not page anyone. The alarm
// clears symmetrically after enough consecutive normal records.
//
// This is the operational layer the paper's introduction motivates ("an
// alert on intrusion then triggers a response") on top of Algorithms 2/3.
type OnlineDetector struct {
	det *Detector

	// Smoothing is the EWMA weight of the newest score in (0,1]; 1 means
	// no smoothing.
	Smoothing float64
	// RaiseAfter is how many consecutive anomalous records raise an alarm.
	RaiseAfter int
	// ClearAfter is how many consecutive normal records clear it.
	ClearAfter int

	initialized bool
	ewma        float64
	anomRun     int
	normRun     int
	alarm       bool
	records     uint64
	alarms      uint64
	invalid     uint64
}

// NewOnlineDetector wraps det with default smoothing (0.5) and 3-record
// raise / 5-record clear hysteresis.
func NewOnlineDetector(det *Detector) *OnlineDetector {
	return &OnlineDetector{det: det, Smoothing: 0.5, RaiseAfter: 3, ClearAfter: 5}
}

// NewOnlineDetectors returns n detectors in one backing slab, each
// initialised exactly as NewOnlineDetector(det). Checkpoint restore warms
// thousands of streams at boot, and allocating each detector individually
// dominated that path's allocation profile; the slab costs one.
func NewOnlineDetectors(det *Detector, n int) []OnlineDetector {
	ods := make([]OnlineDetector, n)
	for i := range ods {
		ods[i] = OnlineDetector{det: det, Smoothing: 0.5, RaiseAfter: 3, ClearAfter: 5}
	}
	return ods
}

// State is the detector's externally visible condition after a record.
type State struct {
	Score    float64 // raw score of the record
	Smoothed float64 // EWMA-smoothed score
	Alarm    bool    // current alarm condition
	Raised   bool    // this record raised the alarm
	Cleared  bool    // this record cleared the alarm
}

// Observe consumes one discretised audit record and returns the updated
// state.
//
// A non-finite score — possible when a degenerate sub-model emits NaN
// probabilities — is treated as anomalous: it counts toward the raise
// hysteresis like any sub-threshold record, but is kept out of the EWMA
// so one poisoned record cannot turn the smoothed state NaN forever.
func (o *OnlineDetector) Observe(x []int) State {
	return o.ObserveScore(o.det.Score(x))
}

// ObserveScore consumes one record whose raw score was already computed —
// the batch serving path scores whole requests through Analyzer.ScoreAll
// and then feeds each stream's detector here. State transitions are
// identical to Observe: Observe(x) is exactly
// ObserveScore(det.Score(x)), and ScoreAll is pinned bit-identical to
// Score, so batch and per-record scoring cannot diverge.
func (o *OnlineDetector) ObserveScore(raw float64) State {
	o.records++
	finite := !math.IsNaN(raw) && !math.IsInf(raw, 0)
	if finite {
		alpha := o.Smoothing
		if alpha <= 0 || alpha > 1 {
			alpha = 0.5
		}
		if !o.initialized {
			o.ewma = raw
			o.initialized = true
		} else {
			o.ewma = alpha*raw + (1-alpha)*o.ewma
		}
	} else {
		o.invalid++
	}
	st := State{Score: raw, Smoothed: o.ewma, Alarm: o.alarm}

	// Hysteresis counts raw per-record decisions: a single deep outlier
	// must not satisfy the "consecutive anomalous records" requirement by
	// dragging the smoothed score under the threshold for several steps.
	if !finite || raw < o.det.Threshold {
		o.anomRun++
		o.normRun = 0
	} else {
		o.normRun++
		o.anomRun = 0
	}
	raiseAfter := o.RaiseAfter
	if raiseAfter < 1 {
		raiseAfter = 1
	}
	clearAfter := o.ClearAfter
	if clearAfter < 1 {
		clearAfter = 1
	}
	switch {
	case !o.alarm && o.anomRun >= raiseAfter:
		o.alarm = true
		o.alarms++
		st.Raised = true
	case o.alarm && o.normRun >= clearAfter:
		o.alarm = false
		st.Cleared = true
	}
	st.Alarm = o.alarm
	return st
}

// Alarm reports the current alarm condition.
func (o *OnlineDetector) Alarm() bool { return o.alarm }

// Stats reports (records observed, alarms raised).
func (o *OnlineDetector) Stats() (records, alarms uint64) { return o.records, o.alarms }

// Invalid reports how many observed records scored non-finite.
func (o *OnlineDetector) Invalid() uint64 { return o.invalid }

// SwapDetector replaces the underlying detector in place — the hot model
// reload path — while preserving the stream's smoothed score, hysteresis
// runs and alarm condition, so a reload mid-incident neither silences an
// active alarm nor re-pages for one already raised. A nil detector is
// ignored.
func (o *OnlineDetector) SwapDetector(det *Detector) {
	if det != nil {
		o.det = det
	}
}

// Online detector state travels in serve checkpoints as a compact,
// fixed-width binary record (one per live stream, so millions of streams
// must stay cheap to encode). Layout, integers big-endian:
//
//	offset size
//	0      1    state format version (currently 1)
//	1      1    flags (bit 0 initialized, bit 1 alarm)
//	2      8    ewma (IEEE 754 bits)
//	10     8    Smoothing (IEEE 754 bits)
//	18     4    anomRun     22  4  normRun
//	26     4    RaiseAfter  30  4  ClearAfter
//	34     8    records     42  8  alarms    50  8  invalid
const (
	onlineStateVersion = 1
	// OnlineStateLen is the encoded size of one detector's state.
	OnlineStateLen = 58
)

// ErrOnlineState marks a state blob AppendState did not produce: wrong
// version, short buffer, or values (non-finite EWMA, out-of-range knobs)
// that could poison a detector restored from it.
var ErrOnlineState = errors.New("online detector state invalid")

// AppendState appends the detector's full state — EWMA, hysteresis runs,
// alarm condition, counters and smoothing knobs — to buf and returns the
// extended slice. The underlying Detector (model weights, threshold) is
// deliberately not captured: checkpoints restore stream state against
// whatever model generation is serving, exactly as a hot reload keeps
// stream state across model swaps.
func (o *OnlineDetector) AppendState(buf []byte) []byte {
	var flags byte
	if o.initialized {
		flags |= 1
	}
	if o.alarm {
		flags |= 2
	}
	var b [OnlineStateLen]byte
	b[0] = onlineStateVersion
	b[1] = flags
	binary.BigEndian.PutUint64(b[2:10], math.Float64bits(o.ewma))
	binary.BigEndian.PutUint64(b[10:18], math.Float64bits(o.Smoothing))
	binary.BigEndian.PutUint32(b[18:22], uint32(o.anomRun))
	binary.BigEndian.PutUint32(b[22:26], uint32(o.normRun))
	binary.BigEndian.PutUint32(b[26:30], uint32(o.RaiseAfter))
	binary.BigEndian.PutUint32(b[30:34], uint32(o.ClearAfter))
	binary.BigEndian.PutUint64(b[34:42], o.records)
	binary.BigEndian.PutUint64(b[42:50], o.alarms)
	binary.BigEndian.PutUint64(b[50:58], o.invalid)
	return append(buf, b[:]...)
}

// RestoreState overwrites the detector's state from a blob written by
// AppendState, validating it first: the blob must be exactly one
// OnlineStateLen encoding, and a detector must never come back with a NaN
// EWMA or negative hysteresis runs, whatever the file said. The
// underlying Detector is untouched.
func (o *OnlineDetector) RestoreState(data []byte) error {
	if len(data) != OnlineStateLen {
		return fmt.Errorf("%w: %d bytes, want %d", ErrOnlineState, len(data), OnlineStateLen)
	}
	if data[0] != onlineStateVersion {
		return fmt.Errorf("%w: state version %d, this build reads %d", ErrOnlineState, data[0], onlineStateVersion)
	}
	flags := data[1]
	if flags&^3 != 0 {
		return fmt.Errorf("%w: unknown flag bits %#x", ErrOnlineState, flags)
	}
	ewma := math.Float64frombits(binary.BigEndian.Uint64(data[2:10]))
	smoothing := math.Float64frombits(binary.BigEndian.Uint64(data[10:18]))
	initialized := flags&1 != 0
	if initialized && (math.IsNaN(ewma) || math.IsInf(ewma, 0)) {
		return fmt.Errorf("%w: non-finite ewma %v", ErrOnlineState, ewma)
	}
	if math.IsNaN(smoothing) || smoothing < 0 || smoothing > 1 {
		return fmt.Errorf("%w: smoothing %v out of [0,1]", ErrOnlineState, smoothing)
	}
	anomRun := binary.BigEndian.Uint32(data[18:22])
	normRun := binary.BigEndian.Uint32(data[22:26])
	raiseAfter := binary.BigEndian.Uint32(data[26:30])
	clearAfter := binary.BigEndian.Uint32(data[30:34])
	const maxRun = 1 << 30 // far past any plausible hysteresis setting
	if anomRun > maxRun || normRun > maxRun || raiseAfter > maxRun || clearAfter > maxRun {
		return fmt.Errorf("%w: implausible hysteresis values", ErrOnlineState)
	}
	o.initialized = initialized
	o.alarm = flags&2 != 0
	o.ewma = ewma
	o.Smoothing = smoothing
	o.anomRun = int(anomRun)
	o.normRun = int(normRun)
	o.RaiseAfter = int(raiseAfter)
	o.ClearAfter = int(clearAfter)
	o.records = binary.BigEndian.Uint64(data[34:42])
	o.alarms = binary.BigEndian.Uint64(data[42:50])
	o.invalid = binary.BigEndian.Uint64(data[50:58])
	return nil
}

// Reset returns the detector to its initial state.
func (o *OnlineDetector) Reset() {
	o.initialized = false
	o.ewma = 0
	o.anomRun = 0
	o.normRun = 0
	o.alarm = false
}

// String aids logging.
func (o *OnlineDetector) String() string {
	return fmt.Sprintf("OnlineDetector(alarm=%v, ewma=%.3f, threshold=%.3f)",
		o.alarm, o.ewma, o.det.Threshold)
}
