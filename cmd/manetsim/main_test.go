package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crossfeature/internal/features"
)

func TestRunProducesReadableTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.csv")
	err := run([]string{
		"-nodes", "10", "-connections", "6", "-duration", "100",
		"-seed", "3", "-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	vs, err := features.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 20 { // 100 s at 5 s sampling
		t.Errorf("trace has %d records, want 20", len(vs))
	}
}

func TestRunDSRTCPWithAttack(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.csv")
	err := run([]string{
		"-routing", "dsr", "-transport", "tcp", "-nodes", "10",
		"-connections", "6", "-duration", "100", "-attack", "blackhole",
		"-attacker", "3", "-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-routing", "babel"},
		{"-transport", "sctp"},
		{"-attack", "wormhole"},
		// Non-finite settings used to be accepted; the first two never
		// returned.
		{"-duration", "NaN"},
		{"-duration", "+Inf"},
		{"-rate", "NaN"},
	} {
		// The case's flags come last so they override the small defaults.
		base := []string{"-duration", "10", "-nodes", "5", "-connections", "2"}
		if err := run(append(base, args...)); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestAttackSpecsModes(t *testing.T) {
	for _, mode := range []string{"none", "mixed", "blackhole", "dropping", "storm"} {
		specs, err := attackSpecs(mode, 5, 0, 1000)
		if err != nil {
			t.Errorf("%s: %v", mode, err)
		}
		switch mode {
		case "none":
			if specs != nil {
				t.Error("none produced specs")
			}
		case "mixed":
			if len(specs) != 2 {
				t.Errorf("mixed has %d specs", len(specs))
			}
		default:
			if len(specs) != 1 || len(specs[0].Sessions) != 3 {
				t.Errorf("%s schedule wrong: %+v", mode, specs)
			}
		}
	}
	if _, err := attackSpecs("bogus", 5, 0, 1000); err == nil ||
		!strings.Contains(err.Error(), "bogus") {
		t.Error("unknown mode accepted")
	}
}

func TestMetricsOutput(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.csv")
	metrics := filepath.Join(dir, "metrics.prom")
	err := run([]string{
		"-routing", "dsr", "-nodes", "8", "-connections", "4",
		"-duration", "60", "-out", out, "-metrics-out", metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{
		"# TYPE sim_packets_total counter",
		`sim_packets_total{protocol="DSR",class="data",dir="sent"}`,
		"# TYPE sim_route_events_total counter",
		"sim_events_processed",
		"sim_audit_records 12", // 60 s at 5 s sampling
		"sim_virtual_seconds 60",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("metrics missing %q:\n%s", want, s)
		}
	}
	// An unwritable path must fail up front, before the simulation runs.
	err = run([]string{
		"-nodes", "8", "-connections", "4", "-duration", "60",
		"-out", filepath.Join(dir, "t2.csv"),
		"-metrics-out", filepath.Join(dir, "no", "such", "dir", "m.prom"),
	})
	if err == nil {
		t.Fatal("unwritable metrics path accepted")
	}
}

func TestEventLogOutput(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.csv")
	events := filepath.Join(dir, "events.log")
	err := run([]string{
		"-nodes", "8", "-connections", "4", "-duration", "60",
		"-out", out, "-events", events,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("event log empty")
	}
	first := strings.SplitN(string(data), "\n", 2)[0]
	if !strings.HasPrefix(first, "p ") && !strings.HasPrefix(first, "r ") {
		t.Errorf("unexpected event line %q", first)
	}
}
