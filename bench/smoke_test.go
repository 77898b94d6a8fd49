package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary as the
// offline workloads' child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// buildPrograms builds cfa and manetsim from the tree under test.
func buildPrograms(t *testing.T) binaries {
	t.Helper()
	dir := t.TempDir()
	out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"crossfeature/cmd/cfa", "crossfeature/cmd/manetsim").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return binaries{cfa: filepath.Join(dir, "cfa"), manetsim: filepath.Join(dir, "manetsim")}
}

func smokeOpts(t *testing.T, bin binaries, w workload, traced bool) runOpts {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	return runOpts{
		spec: spec, workload: w, seed: 2, seconds: time.Second, trace: traced,
		conns: runtime.NumCPU(), bin: bin, smoke: true,
		work: filepath.Join(dir, "work"), spansPath: filepath.Join(dir, "spans.json"),
	}
}

// TestSmoke runs every workload, untraced and traced, for a second at
// smoke scale: outputs verified, nothing failed, every declared metric
// reported, and measured unless the workload skips its layer.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run")
	}
	bin := buildPrograms(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				o := smokeOpts(t, bin, w, traced)
				res, err := run(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				want := len(o.spec.EndToEnd)
				if traced {
					want = len(o.spec.PerLayer)
					if _, err := os.Stat(o.spansPath); err != nil {
						t.Errorf("no spans written: %v", err)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != want {
					t.Errorf("correct=%v attempted=%d failed=%d metrics=%d (want %d)",
						res.Correct, res.Attempted, res.Failed, len(res.Metrics), want)
				}
				// A layer the workload enters does work that takes time.
				for _, name := range []string{"serve.decode_us", "serve.kernel_us", "core.score_all_us_per_rec", "core.train_s.c45"} {
					if m := res.Metrics[name]; traced && !w.idle(name) && m.Value <= 0 {
						t.Errorf("%s = %v", name, m.Value)
					}
				}
			})
		}
	}
}

// TestVerifyRejectsWrongReference serves one bundle and verifies against
// another: the verification pass must fail the run's correctness.
func TestVerifyRejectsWrongReference(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run")
	}
	bin := buildPrograms(t)
	w, _ := workloadByName("serve-batch")
	o := smokeOpts(t, bin, w, false)
	ctx := context.Background()
	served, err := makeFixtures(ctx, bin, filepath.Join(o.work, "served"), o.seed, "NBC", true)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := makeFixtures(ctx, bin, filepath.Join(o.work, "reference"), o.seed, "C4.5", true)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := startServer(ctx, bin.cfa, served.bundle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	reqs, bodies, err := w.serve.requests(served.pool)
	if err != nil {
		t.Fatal(err)
	}
	r := &serveRun{opts: o, sh: w.serve, fx: wrong, reqs: reqs, bodies: bodies,
		client: newClient(1), out: newOutcome()}
	if err := r.verify(srv); err != nil {
		t.Fatal(err)
	}
	if r.out.correct {
		t.Fatal("verdicts from the NBC bundle passed verification against the C4.5 reference")
	}
}
