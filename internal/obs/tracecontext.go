package obs

// Request-scoped trace identity. Every scoring request carries a
// TraceContext — a 128-bit trace id, a 64-bit span id and a sampling bit —
// propagated in the X-CFA-Trace header from client to server. The server
// echoes the header on the response and stamps the trace id into its
// flight recorder, latency exemplars and access log, so one id links a
// client-observed latency to the server-side per-hop timeline that
// produced it.
//
// Wire format (a compact cousin of W3C traceparent, sized for this
// service):
//
//	<32 hex trace id>-<16 hex span id>-<2 hex flags>
//
// Flags bit 0 is the sampling bit. Parsing is strict on shape but a
// malformed header never fails a request: the server just mints a fresh
// context, because a scoring request with a garbled header still deserves
// a verdict (and a trace).

import (
	"fmt"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP header carrying the trace context.
const TraceHeader = "X-CFA-Trace"

// TraceContext identifies one logical request across process boundaries.
type TraceContext struct {
	Hi, Lo  uint64 // 128-bit trace id
	Span    uint64 // current span (one per attempt/hop owner)
	Sampled bool
}

// traceIDLen is the encoded length: 32 hex + '-' + 16 hex + '-' + 2 hex.
const traceEncodedLen = 32 + 1 + 16 + 1 + 2

// idState seeds the lock-free id generator. Each NewTraceContext takes one
// atomic add and runs the counter through a splitmix64 finalizer — unique
// per process, well-mixed across processes via the time-derived seed, and
// never in need of a lock or a syscall on the hot path.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()))
}

// splitmix64 is the SplitMix64 output function: a bijective mixer whose
// outputs over a counter sequence are statistically indistinguishable from
// random — exactly what ids derived from an atomic counter need.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextID returns a fresh non-zero 64-bit id.
func nextID() uint64 {
	for {
		if id := splitmix64(idState.Add(0x9e3779b97f4a7c15)); id != 0 {
			return id
		}
	}
}

// NewTraceContext mints a sampled context with fresh trace and span ids.
func NewTraceContext() TraceContext {
	return TraceContext{Hi: nextID(), Lo: nextID(), Span: nextID(), Sampled: true}
}

// Valid reports whether tc carries a usable trace id.
func (tc TraceContext) Valid() bool { return tc.Hi != 0 || tc.Lo != 0 }

// TraceID renders the 128-bit trace id as 32 lowercase hex digits.
func (tc TraceContext) TraceID() string {
	return fmt.Sprintf("%016x%016x", tc.Hi, tc.Lo)
}

// SpanID renders the span id as 16 lowercase hex digits.
func (tc TraceContext) SpanID() string { return fmt.Sprintf("%016x", tc.Span) }

// Header encodes tc for the X-CFA-Trace header.
func (tc TraceContext) Header() string {
	flags := 0
	if tc.Sampled {
		flags = 1
	}
	return fmt.Sprintf("%016x%016x-%016x-%02x", tc.Hi, tc.Lo, tc.Span, flags)
}

// ParseTraceContext decodes a header value. ok is false — and the caller
// should mint a fresh context — on any shape violation or an all-zero
// trace id.
func ParseTraceContext(s string) (TraceContext, bool) {
	if len(s) != traceEncodedLen || s[32] != '-' || s[49] != '-' {
		return TraceContext{}, false
	}
	hi, ok := parseHex64(s[:16])
	if !ok {
		return TraceContext{}, false
	}
	lo, ok := parseHex64(s[16:32])
	if !ok {
		return TraceContext{}, false
	}
	span, ok := parseHex64(s[33:49])
	if !ok {
		return TraceContext{}, false
	}
	flags, ok := parseHex64(s[50:52])
	if !ok {
		return TraceContext{}, false
	}
	tc := TraceContext{Hi: hi, Lo: lo, Span: span, Sampled: flags&1 != 0}
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

// ContextFromHeader parses s, minting a fresh sampled context when s is
// empty or malformed. The bool reports whether the context came from the
// wire (a propagated id) rather than being minted here.
func ContextFromHeader(s string) (TraceContext, bool) {
	if s == "" {
		return NewTraceContext(), false
	}
	if tc, ok := ParseTraceContext(s); ok {
		return tc, true
	}
	return NewTraceContext(), false
}

// parseHex64 decodes up to 16 lowercase/uppercase hex digits.
func parseHex64(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}
