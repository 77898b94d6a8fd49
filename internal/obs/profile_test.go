package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestProfileServer boots the debug listener on an ephemeral port and
// scrapes every surface: /metrics must be well-formed exposition text and
// /debug/pprof/heap must return a non-empty profile.
func TestProfileServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("smoke_total", "smoke").Add(7)

	p, err := StartDebugServer("127.0.0.1:0", DebugMux(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	base := "http://" + p.Addr().String()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "smoke_total 7") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if !strings.HasPrefix(body, "# HELP") {
		t.Errorf("/metrics body not exposition format: %q", body)
	}
	if ctype != PrometheusContentType {
		t.Errorf("/metrics content type = %q", ctype)
	}

	code, body, _ = get("/debug/pprof/heap?debug=1")
	if code != http.StatusOK || len(body) == 0 || !strings.Contains(body, "heap") {
		t.Errorf("/debug/pprof/heap = %d (%d bytes)", code, len(body))
	}

	code, _, _ = get("/debug/pprof/")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/ index = %d", code)
	}
}
