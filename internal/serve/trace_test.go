package serve

// Tests for the request-tracing layer: header propagation end to end,
// exemplars resolving to flight-recorder timelines (the chaos-side
// debugging loop), access-log sampling under brownout, and SLO burn rate
// as opt-in overload evidence.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"crossfeature/internal/obs"
)

// scoreHops is the full-fidelity pipeline in stamp order; every traced
// 200 on /v1/score must carry exactly these.
var scoreHops = []string{"decode", "admit", "transform", "kernel", "lock", "observe"}

// findTrace returns the dump's trace with the given id, or nil.
func findTrace(d obs.FlightDump, id string) *obs.RequestTrace {
	for i := range d.Traces {
		if d.Traces[i].TraceID == id {
			return &d.Traces[i]
		}
	}
	return nil
}

// assertTimeline checks rt carries the named hops in order with
// non-decreasing offsets bounded by the request duration.
func assertTimeline(t *testing.T, rt *obs.RequestTrace, hops []string) {
	t.Helper()
	if len(rt.Hops) != len(hops) {
		t.Fatalf("trace %s hops = %+v, want %v", rt.TraceID, rt.Hops, hops)
	}
	last := int64(0)
	for i, h := range rt.Hops {
		if h.Name != hops[i] {
			t.Errorf("hop %d = %q, want %q", i, h.Name, hops[i])
		}
		if h.OffsetMicros < last {
			t.Errorf("hop %q offset %d precedes previous %d", h.Name, h.OffsetMicros, last)
		}
		last = h.OffsetMicros
	}
	if last > rt.DurationMicros {
		t.Errorf("last hop at %dus is past the request duration %dus", last, rt.DurationMicros)
	}
}

func TestTraceHeaderPropagation(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A client-supplied trace context must be honoured and echoed.
	tc := obs.NewTraceContext()
	body, _ := json.Marshal(ScoreRequest{Stream: "traced", Records: records(3, normalRecord)})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/score", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, tc.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != tc.Header() {
		t.Errorf("response trace header = %q, want the propagated %q", got, tc.Header())
	}
	rt := findTrace(s.Flight().Dump(), tc.TraceID())
	if rt == nil {
		t.Fatalf("flight recorder has no trace %s", tc.TraceID())
	}
	if !rt.Propagated || rt.Endpoint != "score" || rt.Stream != "traced" || rt.Records != 3 || rt.Status != http.StatusOK {
		t.Errorf("recorded trace wrong: %+v", rt)
	}
	assertTimeline(t, rt, scoreHops)

	// No header: the server mints a fresh context and still echoes it.
	resp2, _ := postScore(t, ts.URL, ScoreRequest{Stream: "fresh", Records: records(1, normalRecord)})
	minted, ok := obs.ParseTraceContext(resp2.Header.Get(obs.TraceHeader))
	if !ok {
		t.Fatalf("unheadered request echoed unparseable trace %q", resp2.Header.Get(obs.TraceHeader))
	}
	rt2 := findTrace(s.Flight().Dump(), minted.TraceID())
	if rt2 == nil {
		t.Fatalf("flight recorder has no trace for the minted id %s", minted.TraceID())
	}
	if rt2.Propagated {
		t.Error("server-minted trace marked as propagated")
	}
}

func TestTraceBatchEndpointTimeline(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, br := postScoreBatch(t, ts.URL, BatchScoreRequest{Items: []ScoreRequest{
		{Stream: "b-1", Records: records(10, normalRecord)},
		{Stream: "b-2", Records: records(10, anomalousRecord)},
	}})
	if br == nil {
		t.Fatal("batch score failed")
	}
	d := s.Flight().Dump()
	if len(d.Traces) != 1 {
		t.Fatalf("flight traces = %d, want 1", len(d.Traces))
	}
	rt := &d.Traces[0]
	if rt.Endpoint != "score-batch" || rt.Records != 20 {
		t.Errorf("batch trace wrong: %+v", rt)
	}
	if rt.Anomalies == 0 {
		t.Error("anomalous batch recorded zero anomalies in its trace")
	}
	assertTimeline(t, rt, scoreHops)
}

// TestChaosExemplarResolvesToFlightTimeline is the debugging loop the
// tracing layer exists for, under concurrent load: take the latency
// histogram's slowest exemplar (the p99 bucket's resident trace id) and
// resolve it through /flightz to a complete per-hop timeline.
func TestChaosExemplarResolvesToFlightTimeline(t *testing.T) {
	defer leakCheck(t)()
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if (i+j)%2 == 0 {
					postScore(t, ts.URL, ScoreRequest{Stream: "ex", Records: records(5, normalRecord)})
				} else {
					postScoreBatch(t, ts.URL, BatchScoreRequest{Items: []ScoreRequest{
						{Stream: "ex-b", Records: records(8, anomalousRecord)},
					}})
				}
			}
		}(i)
	}
	wg.Wait()

	exs := s.met.latency.Exemplars()
	if len(exs) == 0 {
		t.Fatal("latency histogram recorded no exemplars")
	}
	// The highest-bucket exemplar is the slowest request anyone can still
	// name — the one an operator chasing a bad p99 starts from.
	slowest := exs[len(exs)-1]
	if slowest.TraceID == "" {
		t.Fatal("slowest exemplar has no trace id")
	}

	// Resolve it through the real /flightz surface.
	fs := httptest.NewServer(obs.FlightHandler(s.Flight()))
	defer fs.Close()
	resp, err := http.Get(fs.URL + "/flightz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump obs.FlightDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Version != obs.FlightVersion {
		t.Fatalf("flight dump version = %d, want %d", dump.Version, obs.FlightVersion)
	}
	rt := findTrace(dump, slowest.TraceID)
	if rt == nil {
		t.Fatalf("exemplar trace %s not resolvable in the flight dump (%d traces)", slowest.TraceID, len(dump.Traces))
	}
	assertTimeline(t, rt, scoreHops)

	// The dump also carries the score exemplars registered at wiring time.
	found := false
	for _, set := range dump.Exemplars {
		if strings.HasPrefix(set.Metric, "cfa_score") && len(set.Exemplars) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("flight dump carries no score exemplars after scored traffic")
	}
}

// lockedBuf is an io.Writer safe to read while the access log writes.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestAccessLogSampling(t *testing.T) {
	var buf lockedBuf
	lines, dropped := obs.NewCounter(), obs.NewCounter()
	lvl := 0
	al := newAccessLog(&buf, 2, func() int { return lvl }, lines, dropped)
	rt := &obs.RequestTrace{TraceID: "cafe", Endpoint: "score", Status: 200, DurationMicros: 1500}

	// Stride 2 at level 0: every second call writes.
	for i := 0; i < 8; i++ {
		al.log(rt)
	}
	if lines.Value() != 4 || dropped.Value() != 4 {
		t.Fatalf("level-0 sampling: %d lines, %d dropped, want 4/4", lines.Value(), dropped.Value())
	}
	// Brownout level 1 widens the stride 4x (to 8): one line in the next 8.
	lvl = 1
	for i := 0; i < 8; i++ {
		al.log(rt)
	}
	if lines.Value() != 5 {
		t.Fatalf("level-1 sampling wrote %d lines total, want 5", lines.Value())
	}

	var entry map[string]any
	line := strings.SplitN(buf.String(), "\n", 2)[0]
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("access log line is not JSON: %v\n%s", err, line)
	}
	if entry["trace_id"] != "cafe" || entry["status"] != float64(200) || entry["latency_ms"] != 1.5 {
		t.Errorf("access log entry wrong: %v", entry)
	}

	// A nil log (disabled) is inert.
	var disabled *accessLog
	disabled.log(rt)
}

func TestAccessLogEndToEnd(t *testing.T) {
	var buf lockedBuf
	s, _ := newTestServer(t, func(c *Config) { c.AccessLog = &buf })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postScore(t, ts.URL, ScoreRequest{Stream: "logged", Records: records(2, normalRecord)})
	deadline := time.Now().Add(2 * time.Second)
	for s.met.accessLogLines.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("access log line never written")
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(buf.String(), `"stream":"logged"`) {
		t.Errorf("access log line wrong: %s", buf.String())
	}
}

// TestSLOBurnIsNotOverloadEvidence pins the SLO monitor as observability,
// not control: a monitor burning its error budget on both windows must not
// make a controller tick hot.
func TestSLOBurnIsNotOverloadEvidence(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.DisableAdaptiveOverload = true // drive the controller by hand
	})
	// A total outage: burn rate ~100x on both windows.
	s.slo.Observe(0, 10_000)
	for _, win := range []time.Duration{5 * time.Minute, time.Hour} {
		if b := s.slo.BurnRate(win); b < 50 {
			t.Fatalf("%v burn rate = %v after a total outage, want ~100", win, b)
		}
	}
	if ev := s.brown.overloadSignal(); ev.hot || ev.budgetHot || ev.shedHot {
		t.Errorf("SLO burn leaked into the overload controller: %+v", ev)
	}
}

func TestBrownoutTransitionsLandInFlightRecorder(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.DisableAdaptiveOverload = true })
	s.brown.shift(+1, "test-induced")
	var found bool
	for _, ev := range s.Flight().Dump().Events {
		if ev.Kind == "brownout" && strings.Contains(ev.Detail, "0 -> 1") {
			found = true
		}
	}
	if !found {
		t.Error("brownout shift not recorded as a flight event")
	}
}

func TestObserveSLOClassification(t *testing.T) {
	s, _ := newTestServer(t, nil)
	good := func() (g uint64) { g, _ = s.slo.GoodTotal(time.Minute); return }
	total := func() (tot uint64) { _, tot = s.slo.GoodTotal(time.Minute); return }

	// Fast 200: all records good.
	s.observeSLO(&obs.RequestTrace{Status: 200, Records: 10, DurationMicros: 1000})
	if good() != 10 || total() != 10 {
		t.Fatalf("fast 200: %d/%d, want 10/10", good(), total())
	}
	// Slow 200 (over the 1s default SLO): records served but not good.
	s.observeSLO(&obs.RequestTrace{Status: 200, Records: 5, DurationMicros: 2_000_000})
	if good() != 10 || total() != 15 {
		t.Fatalf("slow 200: %d/%d, want 10/15", good(), total())
	}
	// Shed 429 with no decoded body: charged as one bad record.
	s.observeSLO(&obs.RequestTrace{Status: 429})
	if good() != 10 || total() != 16 {
		t.Fatalf("shed 429: %d/%d, want 10/16", good(), total())
	}
	// Client mistake: not SLO traffic.
	s.observeSLO(&obs.RequestTrace{Status: 400, Records: 3})
	if total() != 16 {
		t.Fatalf("4xx counted as SLO traffic: total %d", total())
	}
	// Server error: all bad.
	s.observeSLO(&obs.RequestTrace{Status: 500, Records: 4, DurationMicros: 10})
	if good() != 10 || total() != 20 {
		t.Fatalf("500: %d/%d, want 10/20", good(), total())
	}
}
