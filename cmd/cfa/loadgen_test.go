package main

// Load-generator tests. TestLoadgenSmoke is the fast end-to-end check
// behind `make loadgen-smoke`: boot serve on an ephemeral port, run a
// short open-loop measurement, assert non-zero goodput and a clean
// drain. TestLoadgenSweep is the bench-ledger run behind `make
// bench-serve` (gated on CFA_LOADGEN_SWEEP=1): it calibrates the
// service's closed-loop peak, then sweeps 1x/2x/4x offered overload in
// open loop with adaptive overload control on and off, and emits the
// goodput-vs-offered-load comparison as JSON on stdout for the
// BENCH_<date>.json ledger.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"
	"time"

	"crossfeature/internal/features"
	"crossfeature/internal/loadgen"
	"crossfeature/internal/trace"
)

// bootServe starts runServe with the given extra flags on an ephemeral
// port and returns the scrapeable address plus a shutdown func that
// asserts a clean drain.
func bootServe(t *testing.T, model string, extra ...string) (addr string, shutdown func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var buf syncBuffer
	done := make(chan error, 1)
	args := append([]string{"-model", model, "-addr", "127.0.0.1:0"}, extra...)
	go func() { done <- runServe(ctx, args, &buf) }()

	addrRe := regexp.MustCompile(`listening on (\S+)`)
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("server did not announce its listener:\n%s", buf.String())
		}
		if m := addrRe.FindStringSubmatch(buf.String()); m != nil {
			addr = m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	return addr, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("runServe did not drain cleanly: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("server did not drain after cancel")
		}
	}
}

// runLoadgenJSON runs the loadgen subcommand and parses its JSON report.
func runLoadgenJSON(t *testing.T, args []string) *loadgen.Report {
	t.Helper()
	jsonPath := filepath.Join(t.TempDir(), "loadgen.json")
	var out bytes.Buffer
	if err := runLoadgen(context.Background(), append(args, "-json", jsonPath), &out); err != nil {
		t.Fatalf("cfa loadgen: %v\n%s", err, out.String())
	}
	t.Logf("loadgen output:\n%s", out.String())
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("parsing loadgen report: %v", err)
	}
	return &rep
}

// writeAuditTrace fabricates a replayable audit trace with bursty
// timestamps, exercising the manetsim -record format end to end.
func writeAuditTrace(t *testing.T, path string, records int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.AuditRecord, records)
	tm := 0.0
	for i := range recs {
		if i%10 == 0 {
			tm += 20 // session gap
		}
		tm += rng.Float64()
		vals := make([]float64, features.NumFeatures)
		base := rng.Float64() * 10
		for j := range vals {
			vals[j] = base*float64(j%5+1) + rng.Float64()
		}
		recs[i] = trace.AuditRecord{Time: tm, Values: vals}
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteAuditTrace(f, features.Names(), recs); err != nil {
		t.Fatal(err)
	}
}

func TestLoadgenSmoke(t *testing.T) {
	dir := t.TempDir()
	normal := filepath.Join(dir, "normal.csv")
	model := filepath.Join(dir, "model.bin")
	audit := filepath.Join(dir, "trace.audit")
	writeSyntheticTrace(t, normal, 200, false, 40)
	writeAuditTrace(t, audit, 100, 41)
	var out bytes.Buffer
	if err := run([]string{"train", "-in", normal, "-model", model, "-learner", "NBC", "-warmup", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := bootServe(t, model)

	// Open-loop Poisson against the CSV workload: the make loadgen-smoke
	// contract — non-zero goodput, no transport errors, clean drain.
	rep := runLoadgenJSON(t, []string{
		"-target", "http://" + addr, "-trace", normal,
		"-duration", "2s", "-rate", "200", "-multipliers", "1", "-seed", "7",
	})
	if len(rep.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(rep.Points))
	}
	pt := rep.Points[0]
	if pt.RecordsScored == 0 || pt.GoodputRecPerSec <= 0 {
		t.Fatalf("no goodput: %+v", pt)
	}
	if pt.Errors != 0 {
		t.Fatalf("%d transport/server errors in smoke run: %+v", pt.Errors, pt)
	}
	if rep.Version != loadgen.ReportVersion {
		t.Fatalf("report version = %d, want %d", rep.Version, loadgen.ReportVersion)
	}

	// Replay arrivals from the audit trace: sniffs the cfa-audit-trace/1
	// header and preserves the recorded gap shape.
	rep = runLoadgenJSON(t, []string{
		"-target", "http://" + addr, "-trace", audit, "-arrivals", "replay",
		"-duration", "1s", "-rate", "200", "-multipliers", "1", "-seed", "7",
	})
	if pt := rep.Points[0]; pt.RecordsScored == 0 || pt.Errors != 0 {
		t.Fatalf("replay run: %+v", pt)
	}

	// Closed loop for the same workload.
	rep = runLoadgenJSON(t, []string{
		"-target", "http://" + addr, "-trace", normal, "-mode", "closed",
		"-duration", "1s", "-workers", "2", "-multipliers", "1", "-seed", "7",
	})
	if pt := rep.Points[0]; pt.RecordsScored == 0 || pt.Errors != 0 {
		t.Fatalf("closed-loop run: %+v", pt)
	}
	shutdown()
}

// buildCfa compiles the cfa binary once for the sweep. The sweep's server
// runs as a separate OS process: in-process, the generator's hundreds of
// client goroutines and the server share one Go scheduler, and offered
// overload dissolves into scheduling backpressure before a handler ever
// sees it — no queueing, no shedding, no overload signal, just uniformly
// late 200s. A separate process gives the server its own runtime, so the
// storm actually arrives.
func buildCfa(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cfa")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/cfa: %v\n%s", err, out)
	}
	return bin
}

// bootServeProc starts `cfa serve` as a child process on an ephemeral
// port and returns the address plus a shutdown func that SIGTERMs it and
// asserts a clean drain.
func bootServeProc(t *testing.T, bin, model string, extra ...string) (addr string, shutdown func()) {
	t.Helper()
	args := append([]string{"serve", "-model", model, "-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	var buf syncBuffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	addrRe := regexp.MustCompile(`listening on (\S+)`)
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("cfa serve did not announce its listener:\n%s", buf.String())
		}
		if m := addrRe.FindStringSubmatch(buf.String()); m != nil {
			addr = m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	return addr, func() {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("cfa serve did not drain cleanly: %v\n%s", err, buf.String())
			}
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Fatalf("cfa serve did not exit on SIGTERM:\n%s", buf.String())
		}
	}
}

// sweepServeFlags pins the service small enough that the sweep saturates
// it quickly and reproducibly: two scoring slots, a tight pre-decode
// gate, a snappy controller, and enough queue that the static
// configuration can hurt itself by accepting work it cannot serve in
// time.
func sweepServeFlags(adaptive bool) []string {
	return []string{
		"-concurrency", "2", "-queue", "64",
		"-max-inflight", "128",
		"-max-queue-records", "4096",
		"-max-batch-records", "256",
		"-timeout", "500ms",
		// NB: boolean flags must use the -flag=value form; a separate
		// value arg would end flag parsing and silently drop the rest.
		fmt.Sprintf("-adaptive=%v", adaptive),
		"-overload-target", "50ms",
		"-brownout-tick", "20ms",
		"-brownout-enter-after", "3",
		"-brownout-exit-after", "10",
	}
}

func TestLoadgenSweep(t *testing.T) {
	if os.Getenv("CFA_LOADGEN_SWEEP") == "" {
		t.Skip("set CFA_LOADGEN_SWEEP=1 to run the goodput-vs-offered-load sweep (make bench-serve)")
	}
	dir := t.TempDir()
	normal := filepath.Join(dir, "normal.csv")
	model := filepath.Join(dir, "model.bin")
	writeSyntheticTrace(t, normal, 300, false, 40)
	var out bytes.Buffer
	// C4.5, `cfa train`'s default learner and the one the serve-batch
	// benchmark serves, so the sweep loads the kernel a deployment runs.
	if err := run([]string{"train", "-in", normal, "-model", model, "-learner", "C4.5", "-warmup", "0"}, &out); err != nil {
		t.Fatal(err)
	}

	bin := buildCfa(t)

	// The sweep workload is batch-heavy: big bodies at a modest request
	// rate deliver record-volume overload to the scoring path, where
	// the budget and brownout live. (A single-record-heavy mix at the
	// same record rate bottlenecks in the generator's own HTTP stack
	// before the server feels anything — the smoke test covers that
	// mix.)
	workloadArgs := []string{"-batch-fraction", "0.9", "-batch-records", "128"}

	// Phase 1: closed-loop calibration — the sustainable peak in rec/s.
	addr, shutdown := bootServeProc(t, bin, model, sweepServeFlags(true)...)
	cal := runLoadgenJSON(t, append([]string{
		"-target", "http://" + addr, "-trace", normal, "-mode", "closed",
		"-duration", "3s", "-workers", "8", "-multipliers", "1", "-seed", "7",
	}, workloadArgs...))
	peak := cal.Points[0].GoodputRecPerSec
	if peak <= 0 {
		t.Fatalf("calibration found no sustainable goodput: %+v", cal.Points[0])
	}

	// Phase 2: open-loop sweep at 0.7x, 1.4x and 2.8x of the calibrated
	// peak, adaptive on. The base point sits below saturation on
	// purpose: an open-loop arrival stream at exactly the closed-loop
	// peak is critically loaded (utilisation 1) and queues diverge even
	// before any overload, which would make every point an overload
	// point.
	rate := 0.7 * peak
	sweepArgs := func(target string) []string {
		return append([]string{
			"-target", "http://" + target, "-trace", normal,
			"-duration", "4s", "-rate", fmt.Sprintf("%.0f", rate),
			"-multipliers", "1,2,4", "-seed", "7",
		}, workloadArgs...)
	}
	adaptive := runLoadgenJSON(t, sweepArgs(addr))
	shutdown()

	// Phase 3: the same sweep with adaptive overload control off.
	addr, shutdown = bootServeProc(t, bin, model, sweepServeFlags(false)...)
	static := runLoadgenJSON(t, sweepArgs(addr))
	shutdown()

	// The bench-ledger record: one JSON line with both curves, appended
	// to BENCH_<date>.json by the Makefile.
	ledger := map[string]any{
		"bench":            "loadgen_goodput_sweep",
		"peak_rec_per_sec": peak,
		"adaptive":         adaptive.Points,
		"static":           static.Points,
		"workload":         "open-loop poisson, batch-fraction 0.9 x 128, slo 1s",
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(ledger); err != nil {
		t.Fatal(err)
	}

	// Acceptance. The generator and the service share this machine's
	// cores, so past saturation raw goodput measures the client's JSON
	// throughput as much as the server's — a flat raw-goodput curve is
	// not achievable with a colocated generator. What overload control
	// owes us, and what these assertions pin, is the server-side
	// contract: whatever is served is served fast (within-SLO), refusal
	// is cheap 429s rather than timeout churn, and degradation is
	// explicit. The static baseline shows the failure mode the
	// controller exists to prevent: it accepts everything, latency
	// diverges, and within-SLO goodput collapses even though raw
	// goodput looks healthy.
	for _, pt := range adaptive.Points {
		if pt.RecordsScored == 0 {
			t.Errorf("adaptive x%g served nothing: %+v", pt.Multiplier, pt)
		}
		// A few transport errors are the colocated generator's problem
		// (body writes that outlive the server deadline when the shared
		// core is saturated), but the bulk of refusal must be clean 429s.
		if lim := pt.Sent / 10; pt.Errors > 2 && pt.Errors > lim {
			t.Errorf("adaptive x%g: %d errors of %d sent; overload must shed with 429s, not fail requests",
				pt.Multiplier, pt.Errors, pt.Sent)
		}
	}
	var adegr uint64
	for _, pt := range adaptive.Points[1:] {
		adegr += pt.Degraded
	}
	if adegr == 0 {
		t.Error("adaptive sweep saw no degraded (X-CFA-Degraded) responses past saturation; brownout never engaged")
	}
	for _, pt := range static.Points {
		if pt.Degraded != 0 {
			t.Errorf("static sweep saw %d degraded responses at x%g; adaptive control was off", pt.Degraded, pt.Multiplier)
		}
	}
	// The latency contrast, stated as within-SLO fractions rather than
	// raw quantiles: per-point p50/p99 swing wildly when only a handful
	// of responses survive deep overload, but the volume-weighted
	// fraction of records served in time has a wide, stable gap.
	sloFrac := func(pts ...loadgen.Point) float64 {
		var in, all uint64
		for _, pt := range pts {
			in += pt.RecordsWithinSLO
			all += pt.RecordsScored
		}
		if all == 0 {
			return 0
		}
		return float64(in) / float64(all)
	}
	// At nominal load (0.7x peak) the controller must cost nothing.
	if a1, s1 := adaptive.Points[0], static.Points[0]; a1.SLOGoodputRecPerSec < 0.7*s1.SLOGoodputRecPerSec {
		t.Errorf("adaptive within-SLO goodput at x1 = %.0f rec/s vs static %.0f: overload control is throttling nominal load",
			a1.SLOGoodputRecPerSec, s1.SLOGoodputRecPerSec)
	}
	// Past saturation, what adaptive serves it serves in time; static
	// keeps accepting, latency diverges, and its raw goodput stops
	// being goodput at all.
	//
	// Both static-baseline assertions below fail as written: on a 2-vCPU
	// host they failed in every recorded run, before and after the
	// naive-Bayes fallback was retired (CHANGES.md). The likely cause is
	// in the code, not the load. sweepServeFlags sets -timeout 500ms;
	// RequestTimeout covers the wait in the admission queue; and admitN
	// answers a request that outwaits it with ErrQueueTimeout, a 503,
	// which loadgen counts as an error. So every record the static
	// server does score was served within about 0.5 s plus transport,
	// inside the 1 s SLO, and sloFrac over scored records reads about 1
	// at any load: the late work shows up as 503s, which the fraction
	// never counts. A sweep that judges overload control should compare
	// within-SLO goodput per second of offered load, so that 503s count
	// as lost (ROADMAP item 3(b)).
	af := sloFrac(adaptive.Points[1], adaptive.Points[2])
	sf := sloFrac(static.Points[1], static.Points[2])
	if af <= sf {
		t.Errorf("within-SLO fraction past saturation: adaptive %.2f <= static %.2f; overload control should trade raw volume for served-in-time",
			af, sf)
	}
	if sf > 0.7 {
		t.Errorf("static within-SLO fraction past saturation = %.2f; the uncontrolled baseline should be visibly blowing its SLO (is the sweep actually overloading it?)", sf)
	}
}
