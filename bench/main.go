// Command bench is the repository's benchmark. bench/run.sh builds it,
// cfa and manetsim from the checkout and runs it from the checkout's root:
//
//	bash bench/run.sh --workload serve-batch --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh compare -base HEAD~1 -pairs 10
//
// A run prints one line per metric ("workload metric value unit") and,
// last, one JSON object with the run's correctness, operation counts and
// metrics: the end-to-end metrics with --trace 0, the per-layer
// breakdown with --trace 1. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = runCmd(args)
	case "compare":
		err = compareCmd(args)
	case "child":
		err = childMain(args)
	default:
		err = fmt.Errorf("unknown command %q (want run or compare)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet("bench "+name, flag.ContinueOnError)
}

// benchSpec is BENCHMARK.json, which declares every workload and metric.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runOpts configures one run of one workload.
type runOpts struct {
	spec      *benchSpec
	workload  workload
	seed      int64
	seconds   time.Duration
	trace     bool
	conns     int      // generator connections and threads: nproc
	bin       binaries // programs under test
	work      string   // scratch directory for fixtures, removed after the run
	spansPath string   // where a traced run writes its spans
	smoke     bool     // smoke-scale inputs, for the package's own tests
}

// outcome is what one run measured and checked.
type outcome struct {
	correct           bool
	attempted, failed int
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{correct: true, values: map[string]float64{}} }

// count adds samples to the operation counts.
func (o *outcome) count(ss []sample) {
	for _, s := range ss {
		o.attempted++
		if s.err != nil {
			o.failed++
		}
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runCmd(args []string) error {
	fs := newFlagSet("run")
	name := fs.String("workload", "", "workload: serve-batch, serve-record, offline-figure1 or offline-train")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	secs := fs.Int("seconds", 20, "seconds to measure")
	trace := fs.Int("trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
	out := fs.String("out", "", "also write the result JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seed < 1 || *secs < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seed >= 1, --seconds >= 1 and --trace 0 or 1")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	binDir := filepath.Dir(exe)
	build := filepath.Dir(binDir) // .bench_build
	o := runOpts{
		spec:      spec,
		workload:  w,
		seed:      *seed,
		seconds:   time.Duration(*secs) * time.Second,
		trace:     *trace == 1,
		conns:     runtime.NumCPU(),
		bin:       binaries{cfa: filepath.Join(binDir, "cfa"), manetsim: filepath.Join(binDir, "manetsim")},
		work:      filepath.Join(build, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid())),
		spansPath: filepath.Join(build, "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed)),
	}
	runtime.GOMAXPROCS(o.conns)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, o)
	if err != nil {
		return err
	}
	if err := report(os.Stdout, w.name, res); err != nil {
		return err
	}
	if *out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !res.Correct {
		return fmt.Errorf("%s: outputs failed their correctness checks", w.name)
	}
	return nil
}

// run executes one workload and shapes its result: every metric
// BENCHMARK.json declares for the run's kind, with its unit.
func run(ctx context.Context, o runOpts) (*result, error) {
	defer os.RemoveAll(o.work)
	var out *outcome
	var err error
	if o.workload.serve != nil {
		out, err = runServe(ctx, o)
	} else {
		out, err = runOffline(ctx, o)
	}
	if err != nil {
		return nil, err
	}
	declared := o.spec.EndToEnd
	if o.trace {
		declared = o.spec.PerLayer
	}
	res := &result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, m := range declared {
		v, ok := out.values[m.Name]
		idle := o.trace && o.workload.idle(m.Name)
		switch {
		case idle && ok:
			return nil, fmt.Errorf("%s: measured %q, a layer the workload is declared never to enter", o.workload.name, m.Name)
		case idle:
			// A layer this workload's path never enters did no work.
		case !ok:
			return nil, fmt.Errorf("%s: metric %q not measured", o.workload.name, m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("%s: metric %q has no finite value", o.workload.name, m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for name := range out.values {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("%s: undeclared metric %q", o.workload.name, name)
		}
	}
	return res, nil
}

// report prints one line per metric, then the result as the last line.
func report(w *os.File, workload string, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%s %s %v %s\n", workload, n, m.Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
