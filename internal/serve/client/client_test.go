package client

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crossfeature/internal/core"
	"crossfeature/internal/features"
	"crossfeature/internal/ml/nbayes"
	"crossfeature/internal/serve"
)

// newRealServer trains a tiny real bundle and boots an internal/serve
// Server over it, so the client can be exercised against the genuine
// wire format rather than a hand-rolled fake.
func newRealServer(t *testing.T) *serve.Server {
	t.Helper()
	rows := make([][]float64, 0, 120)
	for i := 0; i < 120; i++ {
		base := float64(i % 10)
		rows = append(rows, []float64{base, base * 2, base * 3, float64(i % 3)})
	}
	disc, err := features.Fit(rows, []string{"a", "b", "c", "d"}, features.FitOptions{Buckets: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := disc.Dataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Train(ds, nbayes.NewLearner(), core.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	th, _ := core.Calibrate(a.ScoreAll(ds, core.Probability), 0.02)
	b := &core.Bundle{Analyzer: a, Discretizer: disc, Threshold: th, Scorer: core.Probability}
	path := t.TempDir() + "/model.bin"
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{ModelPath: path})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// fakeServer fails the first `failures` requests with `code`, then
// returns a fixed score response.
func fakeServer(t *testing.T, failures int, code int, headers map[string]string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if int(n) <= failures {
			for k, v := range headers {
				w.Header().Set(k, v)
			}
			w.WriteHeader(code)
			w.Write([]byte(`{"error":"injected failure"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"stream":"s","model_version":1,"results":[{"score":0.9,"smoothed":0.9}]}`))
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

// testClient builds a deterministic client: seeded jitter, recorded
// fake sleeps.
func testClient(t *testing.T, ts *httptest.Server, mutate func(*Config)) (*Client, *[]time.Duration) {
	t.Helper()
	var slept []time.Duration
	cfg := Config{
		BaseURL: ts.URL,
		Rand:    rand.New(rand.NewSource(7)),
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return ctx.Err()
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg), &slept
}

func oneRecord() []serve.Record {
	return []serve.Record{{Time: 1, Values: []float64{1, 2, 3, 4}}}
}

func TestScoreRetriesTransientFailures(t *testing.T) {
	ts, calls := fakeServer(t, 2, http.StatusServiceUnavailable, nil)
	c, slept := testClient(t, ts, nil)
	resp, err := c.Score(context.Background(), "s", oneRecord())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Score != 0.9 {
		t.Errorf("response = %+v", resp)
	}
	if calls.Load() != 3 {
		t.Errorf("attempts = %d, want 3", calls.Load())
	}
	// Backoff grows exponentially: each recorded delay sits in
	// [base<<k / 2, base<<k).
	if len(*slept) != 2 {
		t.Fatalf("sleeps = %v", *slept)
	}
	base := 50 * time.Millisecond
	for k, d := range *slept {
		lo, hi := (base<<k)/2, base<<k
		if d < lo || d >= hi {
			t.Errorf("backoff %d = %v, want in [%v,%v)", k, d, lo, hi)
		}
	}
}

func TestScoreDoesNotRetryClientErrors(t *testing.T) {
	ts, calls := fakeServer(t, 10, http.StatusBadRequest, nil)
	c, slept := testClient(t, ts, nil)
	_, err := c.Score(context.Background(), "s", oneRecord())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("error = %v", err)
	}
	if calls.Load() != 1 || len(*slept) != 0 {
		t.Errorf("client retried a 400: %d attempts, %d sleeps", calls.Load(), len(*slept))
	}
}

func TestScoreGivesUpAfterMaxAttempts(t *testing.T) {
	ts, calls := fakeServer(t, 1000, http.StatusServiceUnavailable, nil)
	c, _ := testClient(t, ts, func(cfg *Config) { cfg.MaxAttempts = 3 })
	_, err := c.Score(context.Background(), "s", oneRecord())
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("error = %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("attempts = %d, want 3", calls.Load())
	}
}

func TestRetryBudgetBoundsRetryStorm(t *testing.T) {
	ts, calls := fakeServer(t, 1000000, http.StatusServiceUnavailable, nil)
	c, _ := testClient(t, ts, func(cfg *Config) {
		cfg.MaxAttempts = 10
		cfg.RetryBudget = 5
	})
	// Hammer the dead server with many calls: total retries across the
	// client must be capped by the budget, not MaxAttempts * calls.
	for i := 0; i < 20; i++ {
		if _, err := c.Score(context.Background(), "s", oneRecord()); err == nil {
			t.Fatal("score against dead server succeeded")
		}
	}
	attempts := calls.Load()
	// 20 first attempts (not budgeted) + at most 5 budgeted retries.
	if attempts > 25 {
		t.Errorf("attempts = %d; retry budget failed to bound the storm", attempts)
	}
	_, _, denied := c.Stats()
	if denied == 0 {
		t.Error("no call was denied by the exhausted budget")
	}
}

func TestRetryBudgetRefillsOnSuccess(t *testing.T) {
	ts, _ := fakeServer(t, 0, 0, nil)
	c, _ := testClient(t, ts, func(cfg *Config) {
		cfg.RetryBudget = 2
		cfg.RefillPerSuccess = 1
	})
	c.budget = 0 // start dry
	for i := 0; i < 3; i++ {
		if _, err := c.Score(context.Background(), "s", oneRecord()); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	got := c.budget
	c.mu.Unlock()
	if got != 2 {
		t.Errorf("budget after successes = %v, want capped at 2", got)
	}
}

func TestRetryAfterHintIsHonoured(t *testing.T) {
	ts, _ := fakeServer(t, 1, http.StatusTooManyRequests, map[string]string{"Retry-After": "1"})
	c, slept := testClient(t, ts, nil)
	if _, err := c.Score(context.Background(), "s", oneRecord()); err != nil {
		t.Fatal(err)
	}
	if len(*slept) != 1 {
		t.Fatalf("sleeps = %v", *slept)
	}
	// The hint (1s) floors the 50ms base step; jitter keeps it in [500ms, 1s).
	if d := (*slept)[0]; d < 500*time.Millisecond || d >= time.Second {
		t.Errorf("Retry-After-driven delay = %v, want in [500ms, 1s)", d)
	}
}

func TestScoreStopsOnContextCancel(t *testing.T) {
	ts, calls := fakeServer(t, 1000, http.StatusServiceUnavailable, nil)
	ctx, cancel := context.WithCancel(context.Background())
	c, _ := testClient(t, ts, func(cfg *Config) {
		cfg.MaxAttempts = 100
		cfg.Sleep = func(ctx context.Context, d time.Duration) error {
			cancel() // the caller gives up while the client backs off
			return ctx.Err()
		}
	})
	_, err := c.Score(ctx, "s", oneRecord())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if calls.Load() != 1 {
		t.Errorf("attempts after cancel = %d, want 1", calls.Load())
	}
}

func TestEndToEndAgainstRealServe(t *testing.T) {
	// Not a chaos test, but the integration seam: the client must parse
	// what the real server emits.
	srv := newRealServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL})
	resp, err := c.Score(context.Background(), "node-1", oneRecord())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stream != "node-1" || len(resp.Results) != 1 || resp.ModelVersion != 1 {
		t.Errorf("response = %+v", resp)
	}
}

func TestScoreBatchRetriesAndSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/score-batch" {
			t.Errorf("path = %q, want /v1/score-batch", r.URL.Path)
		}
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"injected failure"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"model_version":1,"records_scored":2,"items":[{"stream":"a","results":[{"score":0.9,"smoothed":0.9},{"score":0.8,"smoothed":0.85}]}]}`))
	}))
	t.Cleanup(ts.Close)
	c, slept := testClient(t, ts, nil)
	resp, err := c.ScoreBatch(context.Background(), []serve.ScoreRequest{
		{Stream: "a", Records: oneRecord()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.RecordsScored != 2 || len(resp.Items) != 1 || resp.Items[0].Stream != "a" {
		t.Errorf("response = %+v", resp)
	}
	if calls.Load() != 2 || len(*slept) != 1 {
		t.Errorf("attempts = %d, sleeps = %d; want one retry", calls.Load(), len(*slept))
	}
}

// TestScoreBatchPartialFailureIsBreakerHealthy pins the partial-failure
// semantics: a 200 whose items carry per-item errors is a successful call
// — no retry, no breaker damage, budget earned — while transport-level
// 5xx still counts against the breaker.
func TestScoreBatchPartialFailureIsBreakerHealthy(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"model_version":1,"records_scored":1,"items":[{"stream":"ok","results":[{"score":0.9,"smoothed":0.9}]},{"stream":"bad","error":"bad record: wrong width"}]}`))
	}))
	t.Cleanup(ts.Close)
	c, slept := testClient(t, ts, func(cfg *Config) {
		cfg.Breaker = BreakerConfig{MinRequests: 2, FailureRatio: 0.5}
	})
	for i := 0; i < 10; i++ {
		resp, err := c.ScoreBatch(context.Background(), []serve.ScoreRequest{
			{Stream: "ok", Records: oneRecord()},
			{Stream: "bad", Records: oneRecord()},
		})
		if err != nil {
			t.Fatalf("call %d: partial failure surfaced as call error: %v", i, err)
		}
		if resp.Items[1].Error == "" {
			t.Fatalf("call %d: per-item error lost: %+v", i, resp.Items[1])
		}
	}
	if calls.Load() != 10 || len(*slept) != 0 {
		t.Errorf("partial failures caused retries: %d calls, %d sleeps", calls.Load(), len(*slept))
	}
	if st := c.BreakerState(); st != "closed" {
		t.Errorf("breaker state = %q after healthy partial failures, want closed", st)
	}
}

func TestScoreBatchServerErrorsTripBreaker(t *testing.T) {
	ts, _ := fakeServer(t, 1000000, http.StatusInternalServerError, nil)
	c, _ := testClient(t, ts, func(cfg *Config) {
		cfg.MaxAttempts = 1
		cfg.Breaker = BreakerConfig{MinRequests: 4, FailureRatio: 0.5}
	})
	var sawOpen bool
	for i := 0; i < 20; i++ {
		_, err := c.ScoreBatch(context.Background(), []serve.ScoreRequest{{Stream: "s", Records: oneRecord()}})
		if err == nil {
			t.Fatal("batch against failing server succeeded")
		}
		if errors.Is(err, ErrBreakerOpen) {
			sawOpen = true
			break
		}
	}
	if !sawOpen {
		t.Error("sustained 5xx on the batch path never opened the breaker")
	}
}

func TestScoreBatchEndToEndAgainstRealServe(t *testing.T) {
	srv := newRealServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL})
	resp, err := c.ScoreBatch(context.Background(), []serve.ScoreRequest{
		{Stream: "node-1", Records: oneRecord()},
		{Stream: "node-2", Records: oneRecord()},
		{Stream: "node-3", Records: []serve.Record{{Values: []float64{1, 2}}}}, // wrong width
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ModelVersion != 1 || resp.RecordsScored != 2 || len(resp.Items) != 3 {
		t.Fatalf("response = %+v", resp)
	}
	if resp.Items[0].Error != "" || resp.Items[1].Error != "" || resp.Items[2].Error == "" {
		t.Errorf("per-item outcomes wrong: %+v", resp.Items)
	}
}

// TestDegradedResponsesAreSuccessesNotRetries pins the client half of the
// brownout contract: a 200 carrying X-CFA-Degraded is a success — one
// attempt, no retry, no breaker damage — with the degradation surfaced
// through DegradedResponses and the response's Degraded field, not as an
// error. Retrying a degraded verdict would re-offer exactly the load the
// server is browning out to shed.
func TestDegradedResponsesAreSuccessesNotRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-CFA-Degraded", "extras-off")
		w.Write([]byte(`{"stream":"s","model_version":1,"results":[{"score":0.9,"smoothed":0.9}],"degraded":"extras-off"}`))
	}))
	t.Cleanup(ts.Close)
	c, slept := testClient(t, ts, nil)

	sr, err := c.Score(context.Background(), "s", oneRecord())
	if err != nil {
		t.Fatalf("degraded 200 returned error: %v", err)
	}
	if sr.Degraded != "extras-off" {
		t.Fatalf("response Degraded = %q, want extras-off", sr.Degraded)
	}
	attempts, retries, _ := c.Stats()
	if attempts != 1 || retries != 0 {
		t.Fatalf("attempts/retries = %d/%d, want 1/0 (degraded 200 is terminal)", attempts, retries)
	}
	if len(*slept) != 0 {
		t.Fatalf("client slept %v; a degraded success must not back off", *slept)
	}
	if got := c.DegradedResponses(); got != 1 {
		t.Fatalf("DegradedResponses = %d, want 1", got)
	}
	if st := c.BreakerState(); st != "closed" {
		t.Fatalf("breaker = %s after degraded success, want closed", st)
	}

	// A full-fidelity success must not count.
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"stream":"s","model_version":1,"results":[{"score":0.9,"smoothed":0.9}]}`))
	}))
	t.Cleanup(ts2.Close)
	c2, _ := testClient(t, ts2, nil)
	if _, err := c2.Score(context.Background(), "s", oneRecord()); err != nil {
		t.Fatal(err)
	}
	if got := c2.DegradedResponses(); got != 0 {
		t.Fatalf("DegradedResponses = %d for a full-fidelity 200, want 0", got)
	}
}
