package main

import (
	"regexp"
	"strings"
	"testing"
)

// TestWorkloadsMatchBenchmarkJSON pins BENCHMARK.json's workloads to the
// code's, and checks that every prefix a workload skips names at least one
// declared per-layer metric, so a renamed metric cannot fall silently
// into a skipped layer. Metric names and units come from BENCHMARK.json
// itself, and TestSmoke checks that every one is reported.
func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		for _, p := range w.skips {
			found := false
			for _, m := range spec.PerLayer {
				found = found || strings.HasPrefix(m.Name, p)
			}
			if !found {
				t.Errorf("%s skips %q, which names no per-layer metric", w.name, p)
			}
		}
	}
}

// TestBenchmarkJSONShape checks the file's own limits: name and unit
// alphabets, directions, bounds, and a set-up metric.
func TestBenchmarkJSONShape(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || names[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		names[name] = true
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1-200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in s, lower better")
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
		if m.Bound != 0 {
			t.Errorf("per-layer %s has a bound", m.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", spec.RunSeconds)
	}
}
