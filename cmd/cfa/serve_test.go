package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"crossfeature/internal/features"
)

// syncBuffer is a bytes.Buffer safe to read while runServe writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestObsSmoke boots the full service on ephemeral ports and scrapes the
// observability surfaces end to end: /metrics on the public listener and
// pprof + /metrics + /flightz on the debug listener, which serves no
// /tracez. This is the test behind `make obs-smoke`.
func TestObsSmoke(t *testing.T) {
	dir := t.TempDir()
	normal := filepath.Join(dir, "normal.csv")
	model := filepath.Join(dir, "model.bin")
	writeSyntheticTrace(t, normal, 200, false, 40)
	var out bytes.Buffer
	if err := run([]string{"train", "-in", normal, "-model", model, "-learner", "NBC", "-warmup", "0"}, &out); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- runServe(ctx, []string{
			"-model", model, "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		}, &buf)
	}()

	addrRe := regexp.MustCompile(`listening on (\S+)`)
	debugRe := regexp.MustCompile(`debug surface on http://(\S+)/debug`)
	var addr, debug string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" || debug == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server did not announce listeners:\n%s", buf.String())
		}
		s := buf.String()
		if m := addrRe.FindStringSubmatch(s); m != nil {
			addr = m[1]
		}
		if m := debugRe.FindStringSubmatch(s); m != nil {
			debug = m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		return resp.StatusCode, string(b)
	}

	// Score one record so the counters move.
	vals := "[" + strings.TrimSuffix(strings.Repeat("0,", features.NumFeatures), ",") + "]"
	resp, err := http.Post("http://"+addr+"/v1/score", "application/json",
		strings.NewReader(fmt.Sprintf(`{"stream":"smoke","records":[{"time":1,"values":%s}]}`, vals)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score: status %d", resp.StatusCode)
	}

	if code, body := get("http://" + addr + "/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "cfa_requests_total 1") ||
		!strings.Contains(body, "cfa_model_generation 1") {
		t.Errorf("public /metrics (status %d) wrong:\n%s", code, body)
	}
	if code, body := get("http://" + debug + "/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "cfa_requests_total") {
		t.Errorf("debug /metrics (status %d) wrong:\n%s", code, body)
	}
	if code, body := get("http://" + debug + "/debug/pprof/heap?debug=1"); code != http.StatusOK ||
		!strings.Contains(body, "heap profile") {
		t.Errorf("heap profile (status %d) wrong: %.200s", code, body)
	}
	if code, _ := get("http://" + debug + "/tracez"); code != http.StatusNotFound {
		t.Errorf("/tracez status %d, want 404", code)
	}
	// /flightz serves the versioned flight dump, and the scored request
	// above must already be in it with its per-hop timeline.
	if code, body := get("http://" + debug + "/flightz"); code != http.StatusOK ||
		!strings.Contains(body, `"flight_version": 1`) ||
		!strings.Contains(body, `"stream": "smoke"`) ||
		!strings.Contains(body, `"name": "kernel"`) {
		t.Errorf("/flightz (status %d) wrong:\n%.2000s", code, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServe: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain after cancel")
	}
}

// TestServeDebugAddrBindFailureIsFatal pins the startup contract: a debug
// listener that cannot bind kills the boot with an error instead of
// serving without its observability surface — a service that silently
// comes up unobservable is worse than one that fails loudly.
func TestServeDebugAddrBindFailureIsFatal(t *testing.T) {
	dir := t.TempDir()
	normal := filepath.Join(dir, "normal.csv")
	model := filepath.Join(dir, "model.bin")
	writeSyntheticTrace(t, normal, 200, false, 40)
	var out bytes.Buffer
	if err := run([]string{"train", "-in", normal, "-model", model, "-learner", "NBC", "-warmup", "0"}, &out); err != nil {
		t.Fatal(err)
	}

	// Occupy a port so the debug bind must fail.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var buf syncBuffer
	err = runServe(ctx, []string{
		"-model", model, "-addr", "127.0.0.1:0", "-debug-addr", ln.Addr().String(),
	}, &buf)
	if err == nil {
		t.Fatalf("runServe with an unbindable -debug-addr returned nil, want a fatal bind error\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "address already in use") && !strings.Contains(err.Error(), "bind") {
		t.Errorf("bind failure surfaced as %v, want an address-in-use error", err)
	}
}
