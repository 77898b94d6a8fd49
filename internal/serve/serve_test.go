package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"crossfeature/internal/core"
	"crossfeature/internal/features"
	"crossfeature/internal/ml"
	"crossfeature/internal/ml/nbayes"
	"crossfeature/internal/obs"
)

// testFeatureNames is the tiny schema the test bundles use.
var testFeatureNames = []string{"a", "b", "c", "d"}

// writeTestBundle trains a small real bundle (correlated rows, fitted
// discretizer, naive Bayes ensemble) and writes it to path.
func writeTestBundle(t testing.TB, path string) *core.Bundle {
	t.Helper()
	return writeTestBundleOf(t, path, nbayes.NewLearner())
}

// writeTestBundleOf is writeTestBundle with the ensemble trained by l.
func writeTestBundleOf(t testing.TB, path string, l ml.Learner) *core.Bundle {
	t.Helper()
	rows := normalRows(120)
	disc, err := features.Fit(rows, testFeatureNames, features.FitOptions{Buckets: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := disc.Dataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Train(ds, l, core.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	th, _ := core.Calibrate(a.ScoreAll(ds, core.Probability), 0.02)
	b := &core.Bundle{Analyzer: a, Discretizer: disc, Threshold: th, Scorer: core.Probability}
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return b
}

// normalRows fabricates the correlated "normal" audit rows the bundle is
// trained on; normalRecord and anomalousRecord produce score requests
// from the same (or a broken) generator.
func normalRows(n int) [][]float64 {
	rows := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		base := float64(i % 10)
		rows = append(rows, []float64{base, base * 2, base * 3, float64(i % 3)})
	}
	return rows
}

func normalRecord(i int) Record {
	base := float64(i % 10)
	return Record{Time: float64(i), Values: []float64{base, base * 2, base * 3, float64(i % 3)}}
}

func anomalousRecord(i int) Record {
	base := float64(i % 10)
	// Break the inter-feature correlations the model learned.
	return Record{Time: float64(i), Values: []float64{base, 500 - base, base * 31, 9}}
}

// newTestServer builds a Server over a fresh model file. mutate tweaks
// the config before construction.
func newTestServer(t testing.TB, mutate func(*Config)) (*Server, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.bin")
	writeTestBundle(t, path)
	cfg := Config{
		ModelPath: path,
		Logf:      func(format string, args ...any) { t.Logf(format, args...) },
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

func postScore(t testing.TB, url string, req ScoreRequest) (*http.Response, *ScoreResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var sr ScoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return resp, &sr
}

func postScoreBatch(t testing.TB, url string, req BatchScoreRequest) (*http.Response, *BatchScoreResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/score-batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var br BatchScoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	return resp, &br
}

func records(n int, gen func(int) Record) []Record {
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, gen(i))
	}
	return out
}

func TestScoreEndpoint(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, sr := postScore(t, ts.URL, ScoreRequest{Stream: "node-1", Records: records(20, normalRecord)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(sr.Results) != 20 {
		t.Fatalf("results = %d, want 20", len(sr.Results))
	}
	if sr.Stream != "node-1" {
		t.Errorf("response stream = %q, want the request's node-1", sr.Stream)
	}
	if sr.ModelVersion != 1 {
		t.Errorf("model version = %d, want 1", sr.ModelVersion)
	}
	for i, r := range sr.Results {
		if r.Invalid || r.Score < 0 || r.Score > 1 {
			t.Errorf("record %d: implausible score %+v", i, r)
		}
		if r.Alarm {
			t.Errorf("record %d: alarm on normal traffic", i)
		}
	}

	// A sustained anomalous run on its own stream raises the alarm.
	_, sr = postScore(t, ts.URL, ScoreRequest{Stream: "node-2", Records: records(30, anomalousRecord)})
	if !sr.Results[len(sr.Results)-1].Alarm {
		t.Error("sustained anomaly never raised the stream alarm")
	}
	// node-1's detector state is untouched by node-2's incident.
	_, sr = postScore(t, ts.URL, ScoreRequest{Stream: "node-1", Records: records(1, normalRecord)})
	if sr.Results[0].Alarm {
		t.Error("node-2 incident leaked into node-1's stream state")
	}
}

func TestScoreRejectsBadRequests(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"malformed json":  {`{"stream": nope}`, http.StatusBadRequest},
		"missing stream":  {`{"records":[{"values":[1,2,3,4]}]}`, http.StatusBadRequest},
		"no records":      {`{"stream":"x","records":[]}`, http.StatusBadRequest},
		"wrong row width": {`{"stream":"x","records":[{"values":[1,2]}]}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", name, resp.StatusCode, tc.want)
		}
	}
	if s.Stats().BadRequests != 4 {
		t.Errorf("bad request counter = %d, want 4", s.Stats().BadRequests)
	}
	if got := s.Stats().Requests; got != 4 {
		t.Errorf("request counter = %d, want 4", got)
	}
}

func TestScoreRejectsOversizedBody(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 512 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := postScore(t, ts.URL, ScoreRequest{Stream: "big", Records: records(200, normalRecord)})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
}

func TestHealthReadyStatz(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd Readiness
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rd.Ready || rd.ModelVersion != 1 || rd.LastReloadError != "" {
		t.Errorf("readyz = %d %+v", resp.StatusCode, rd)
	}

	postScore(t, ts.URL, ScoreRequest{Stream: "a", Records: records(3, normalRecord)})
	resp, err = http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests != 1 || st.RecordsScored != 3 || st.Streams != 1 {
		t.Errorf("statz = %+v", st)
	}
}

// TestRequestLatencyResolvesSubMillisecond pins the request-latency
// buckets: requests that all finish in 100-400µs must read as such, not
// as an interpolation inside a 0.5ms first bucket (which put every p50 at
// 0.25ms and every p99 at 0.495ms), while multi-second tails stay inside
// the finite buckets.
func TestRequestLatencyResolvesSubMillisecond(t *testing.T) {
	m := newServerMetrics(obs.NewRegistry())
	for i := 0; i < 100; i++ {
		m.latency.Observe(100e-6 + 3e-6*float64(i))
	}
	p := m.latency.SnapshotPoint()
	p50, p99 := p.Quantile(0.5), p.Quantile(0.99)
	if p50 >= 0.0005 || p99 >= 0.0005 || p50 >= p99 {
		t.Errorf("p50 %.6fs, p99 %.6fs: want both under 0.5ms and p50 < p99", p50, p99)
	}
	if top := p.Bounds[len(p.Bounds)-1]; top < 4.096 {
		t.Errorf("top finite bucket %gs, want at least 4.096s", top)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.FeatureMetrics = true })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postScore(t, ts.URL, ScoreRequest{Stream: "m", Records: records(5, normalRecord)})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Errorf("content type = %q", got)
	}
	for _, want := range []string{
		"cfa_requests_total 1",
		"cfa_records_scored_total 5",
		"cfa_request_seconds_count 1",
		"cfa_model_generation 1",
		"cfa_streams 1",
		`cfa_score_count{verdict="normal"} 5`,
		"# TYPE cfa_request_seconds histogram",
		`cfa_feature_checked_total{feature="a"} 5`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /statz is a projection of the same counters.
	st := s.Stats()
	if st.Requests != 1 || st.RecordsScored != 5 || st.UptimeSeconds <= 0 || st.GoVersion == "" {
		t.Errorf("stats = %+v", st)
	}
}

func TestEvictionLoggedOncePerGeneration(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	s, path := newTestServer(t, func(c *Config) {
		c.MaxStreams = 1
		c.Shards = 1 // pin the global LRU: per-shard caps would round up
		c.Logf = func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	countEvictLogs := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, l := range lines {
			if strings.Contains(l, "stream table full") {
				n++
			}
		}
		return n
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		postScore(t, ts.URL, ScoreRequest{Stream: id, Records: records(1, normalRecord)})
	}
	if got := s.Stats().Evictions; got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}
	if got := countEvictLogs(); got != 1 {
		t.Errorf("eviction log lines = %d, want 1 (first per generation)", got)
	}

	// A new model generation re-arms the one-shot log.
	writeTestBundle(t, path)
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e", "f"} {
		postScore(t, ts.URL, ScoreRequest{Stream: id, Records: records(1, normalRecord)})
	}
	if got := countEvictLogs(); got != 2 {
		t.Errorf("eviction log lines after reload = %d, want 2", got)
	}
}

func TestStreamLRUEviction(t *testing.T) {
	// One shard pins the exact global LRU order the assertions below walk;
	// with S shards the cap is ceil(2/S) per shard and the counts differ.
	s, _ := newTestServer(t, func(c *Config) { c.MaxStreams = 2; c.Shards = 1 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, id := range []string{"a", "b", "c", "a", "d"} {
		postScore(t, ts.URL, ScoreRequest{Stream: id, Records: records(1, normalRecord)})
	}
	st := s.Stats()
	if st.Streams != 2 {
		t.Errorf("streams = %d, want 2", st.Streams)
	}
	// a,b -> +c evicts a; +a evicts b; +d evicts c.
	if st.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", st.Evictions)
	}
}

func TestHotReloadSwapsVersionAndKeepsStreams(t *testing.T) {
	s, path := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, sr := postScore(t, ts.URL, ScoreRequest{Stream: "n", Records: records(5, normalRecord)})
	if sr.ModelVersion != 1 {
		t.Fatalf("version = %d", sr.ModelVersion)
	}

	writeTestBundle(t, path) // retrain in place
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d", resp.StatusCode)
	}

	// The existing stream keeps scoring, now against version 2.
	_, sr = postScore(t, ts.URL, ScoreRequest{Stream: "n", Records: records(5, normalRecord)})
	if sr.ModelVersion != 2 {
		t.Errorf("post-reload version = %d, want 2", sr.ModelVersion)
	}
	if s.Stats().Streams != 1 {
		t.Errorf("reload rebuilt the stream table: %d streams", s.Stats().Streams)
	}
}

func TestPanicRecovery(t *testing.T) {
	var arm bool
	s, _ := newTestServer(t, func(c *Config) {
		c.scoreHook = func(stream string) {
			if arm {
				panic("chaos: injected handler panic")
			}
		}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	arm = true
	resp, _ := postScore(t, ts.URL, ScoreRequest{Stream: "p", Records: records(1, normalRecord)})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request status = %d, want 500", resp.StatusCode)
	}
	if s.Stats().Panics != 1 {
		t.Errorf("panics = %d, want 1", s.Stats().Panics)
	}
	// The server survives and keeps serving.
	arm = false
	resp, sr := postScore(t, ts.URL, ScoreRequest{Stream: "p", Records: records(1, normalRecord)})
	if resp.StatusCode != http.StatusOK || len(sr.Results) != 1 {
		t.Errorf("server did not survive the panic: %d", resp.StatusCode)
	}
}

func TestNewFailsOnBadModelBeforeBinding(t *testing.T) {
	dir := t.TempDir()
	if _, err := New(Config{ModelPath: filepath.Join(dir, "missing.bin")}); err == nil {
		t.Error("missing model accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("empty ModelPath accepted")
	}
}

func TestAdmitterBoundsAndDeadline(t *testing.T) {
	a := newAdmitter(1, 1, 1<<20, nil, nil, nil)
	rel1, err := a.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// One waiter fits in the queue...
	type res struct {
		rel func()
		err error
	}
	waiter := make(chan res, 1)
	go func() {
		rel, err := a.admit(context.Background())
		waiter <- res{rel, err}
	}()
	// ...wait until it is actually queued.
	for q, _ := a.depth(); q == 0; q, _ = a.depth() {
		time.Sleep(time.Millisecond)
	}

	// The next one overflows synchronously.
	if _, err := a.admit(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow error = %v", err)
	}
	if a.shed.Value() != 1 {
		t.Errorf("shed = %d, want 1", a.shed.Value())
	}

	// Releasing the slot admits the waiter.
	rel1()
	got := <-waiter
	if got.err != nil {
		t.Fatalf("queued waiter failed: %v", got.err)
	}

	// A waiter whose deadline passes in the queue gets ErrQueueTimeout.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.admit(ctx); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("deadline error = %v", err)
	}
	got.rel()

	if _, hw := a.depth(); hw > 1 {
		t.Errorf("high water = %d, exceeds queue bound 1", hw)
	}
}

func TestAdmitterHighWaterNeverExceedsBound(t *testing.T) {
	const concurrent, queue, burst = 2, 3, 40
	a := newAdmitter(concurrent, queue, 1<<20, nil, nil, nil)
	block := make(chan struct{})
	var wg sync.WaitGroup
	var ok, shed sync.Map
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rel, err := a.admit(context.Background())
			if err != nil {
				shed.Store(i, true)
				return
			}
			<-block
			rel()
			ok.Store(i, true)
		}(i)
	}
	// Wait for the burst to settle: everyone has either queued or shed.
	deadline := time.Now().Add(2 * time.Second)
	for {
		q, _ := a.depth()
		shedN := lenOf(&shed)
		if int(q) == queue && shedN == burst-concurrent-queue {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("burst never settled: queued=%d shed=%d", q, shedN)
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
	if n := lenOf(&ok); n != concurrent+queue {
		t.Errorf("admitted = %d, want %d", n, concurrent+queue)
	}
	if _, hw := a.depth(); hw != queue {
		t.Errorf("high water = %d, want exactly %d", hw, queue)
	}
}

func lenOf(m *sync.Map) int {
	n := 0
	m.Range(func(_, _ any) bool { n++; return true })
	return n
}

func TestReadinessReportsReloadFailure(t *testing.T) {
	s, path := newTestServer(t, nil)
	// Corrupt the file on disk and reload: old model keeps serving.
	if err := writeGarbage(path); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err == nil {
		t.Fatal("corrupt reload succeeded")
	}
	rd := s.Readiness()
	if !rd.Ready {
		t.Error("corrupt reload flipped readiness off despite a serving model")
	}
	if rd.ReloadFailures != 1 || rd.LastReloadError == "" {
		t.Errorf("readiness did not surface the failure: %+v", rd)
	}
	if rd.ModelVersion != 1 {
		t.Errorf("version changed to %d on failed reload", rd.ModelVersion)
	}
}

func writeGarbage(path string) error {
	return os.WriteFile(path, []byte("definitely not a model snapshot"), 0o644)
}
