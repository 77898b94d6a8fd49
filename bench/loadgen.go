package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock abstracts time for the load generator so its scheduling can be
// tested on a fake clock. The real one reads wall time since a start and
// sleeps with nanosleep: the Go runtime's timers round a sub-millisecond
// sleep up to a millisecond whenever the thread idles, which at these
// arrival rates would be most of a request's latency.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ start time.Time }

func newWallClock() wallClock { return wallClock{start: time.Now()} }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// sample is one request's client-side timeline. due is when the schedule
// wanted it sent, sent when a connection took it, done when the last
// response byte arrived; latency is always measured from due, so a stall
// is charged to every request queued behind it.
type sample struct {
	due, sent, firstByte, done time.Duration
	reqBytes, respBytes        int
	err                        error // transport error, non-200 or degraded verdict
}

func (s *sample) latency() time.Duration  { return s.done - s.due }
func (s *sample) lateness() time.Duration { return s.sent - s.due }

// sender issues request i and fills s's firstByte, bytes and err.
type sender func(i int, s *sample)

// poissonDue draws open-loop arrival times at rate per second over dur.
func poissonDue(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// openLoop sends one request per due time on conns connections. Requests
// are taken in schedule order by whichever connection frees up first, so a
// request due while every connection is busy waits in a FIFO, and the
// wait counts in its latency.
func openLoop(clk clock, due []time.Duration, conns int, send sender) []sample {
	samples := make([]sample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				s := &samples[i]
				s.due = due[i]
				clk.sleepUntil(s.due)
				s.sent = clk.now()
				send(i, s)
				s.done = clk.now()
			}
		}()
	}
	wg.Wait()
	return samples
}

// target posts pre-marshalled bodies to one endpoint. Each request carries
// an X-CFA-Trace id built from the run id and the request index, so the
// server's flight-recorder timeline of a request can be matched to its
// client sample.
type target struct {
	client *http.Client
	url    string
	bodies [][]byte
	runID  uint64
}

// newClient builds the generator's HTTP client: at most conns keep-alive
// connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func traceHeader(runID uint64, i int) string {
	return fmt.Sprintf("%016x%016x-%016x-01", runID, uint64(i), uint64(i)+1)
}

// send returns the sender for t on clk: request i posts body i mod
// len(bodies) and discards the response after counting its bytes.
func (t *target) send(clk clock) sender {
	return func(i int, s *sample) {
		body := t.bodies[i%len(t.bodies)]
		s.reqBytes = len(body)
		ct := &httptrace.ClientTrace{GotFirstResponseByte: func() { s.firstByte = clk.now() }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), ct),
			http.MethodPost, t.url, bytes.NewReader(body))
		if err != nil {
			s.err = err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-CFA-Trace", traceHeader(t.runID, i))
		resp, err := t.client.Do(req)
		if err != nil {
			s.err = err
			return
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		s.respBytes = int(n)
		s.err = responseError(resp, err)
	}
}

// responseError classifies a finished response: anything but a complete
// full-fidelity 200 is a failed operation.
func responseError(resp *http.Response, readErr error) error {
	switch {
	case readErr != nil:
		return readErr
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("status %d", resp.StatusCode)
	case resp.Header.Get("X-CFA-Degraded") != "":
		return fmt.Errorf("degraded verdict %q", resp.Header.Get("X-CFA-Degraded"))
	}
	return nil
}

// postJSON posts body and decodes a full-fidelity 200 response into out.
func postJSON(client *http.Client, url string, body []byte, out any) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err := responseError(resp, err); err != nil {
		return fmt.Errorf("%w: %s", err, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// getJSON fetches url and decodes a 200 response into out.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
