package obs

import (
	"strings"
	"testing"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() || !tc.Sampled {
		t.Fatalf("NewTraceContext not valid+sampled: %+v", tc)
	}
	h := tc.Header()
	if len(h) != traceEncodedLen {
		t.Fatalf("header %q has length %d, want %d", h, len(h), traceEncodedLen)
	}
	got, ok := ParseTraceContext(h)
	if !ok || got != tc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, tc)
	}
	if !strings.HasPrefix(h, tc.TraceID()) {
		t.Fatalf("header %q does not start with trace id %q", h, tc.TraceID())
	}
}

func TestTraceContextUnsampledFlag(t *testing.T) {
	tc := NewTraceContext()
	tc.Sampled = false
	got, ok := ParseTraceContext(tc.Header())
	if !ok || got.Sampled {
		t.Fatalf("unsampled flag lost: %+v ok=%v", got, ok)
	}
}

func TestParseTraceContextRejectsMalformed(t *testing.T) {
	valid := NewTraceContext().Header()
	bad := []string{
		"",
		"nonsense",
		valid[:len(valid)-1],                // truncated
		valid + "0",                         // too long
		strings.Replace(valid, "-", "_", 1), // wrong separator
		strings.Repeat("0", 32) + "-" + strings.Repeat("0", 16) + "-01", // zero trace id
		strings.Replace(valid, valid[:1], "g", 1),                       // non-hex
	}
	for _, s := range bad {
		if _, ok := ParseTraceContext(s); ok {
			t.Errorf("ParseTraceContext(%q) accepted malformed input", s)
		}
	}
}

func TestContextFromHeaderMintsOnGarbage(t *testing.T) {
	tc, propagated := ContextFromHeader("garbage")
	if propagated {
		t.Fatal("garbage header reported as propagated")
	}
	if !tc.Valid() || !tc.Sampled {
		t.Fatalf("minted context not valid+sampled: %+v", tc)
	}
	orig := NewTraceContext()
	got, propagated := ContextFromHeader(orig.Header())
	if !propagated || got != orig {
		t.Fatalf("valid header not propagated: %+v propagated=%v", got, propagated)
	}
}

func TestNewSpanKeepsTraceID(t *testing.T) {
	tc := NewTraceContext()
	span := tc.NewSpan()
	if span.TraceID() != tc.TraceID() {
		t.Fatal("NewSpan changed the trace id")
	}
	if span.Span == tc.Span {
		t.Fatal("NewSpan did not change the span id")
	}
}

func TestNextIDUnique(t *testing.T) {
	seen := make(map[uint64]bool, 1000)
	for i := 0; i < 1000; i++ {
		id := nextID()
		if id == 0 || seen[id] {
			t.Fatalf("id %d is zero or repeated at iteration %d", id, i)
		}
		seen[id] = true
	}
}

// FuzzParseTraceContext holds the X-CFA-Trace parser, which sees every
// score request's untrusted header, to its contract: it never panics, and
// whatever it accepts is a valid context that re-encodes to a header
// parsing back to the same context.
func FuzzParseTraceContext(f *testing.F) {
	valid := NewTraceContext().Header()
	f.Add(valid)
	f.Add(strings.ToUpper(valid))
	f.Add(valid[:len(valid)-2] + "ff")
	f.Add(valid[:len(valid)-1])
	f.Add(valid + "0")
	f.Add(strings.Repeat("0", 32) + "-" + strings.Repeat("0", 16) + "-01")
	f.Add(strings.Repeat("f", 32) + "-" + strings.Repeat("f", 16) + "-00")
	f.Add(strings.Repeat("-", traceEncodedLen))
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceContext(s)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("rejected %q but returned %+v", s, tc)
			}
			return
		}
		if !tc.Valid() {
			t.Fatalf("accepted %q as an invalid context %+v", s, tc)
		}
		if got, ok := ParseTraceContext(tc.Header()); !ok || got != tc {
			t.Fatalf("%q: header %q parses back as %+v ok=%v, want %+v", s, tc.Header(), got, ok, tc)
		}
	})
}
