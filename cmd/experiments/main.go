// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-preset paper|quick|smoke] [-only tables,figure1..figure6,ablations,storm,faults,multinode,olsr,all] [-parallel N] [-workers N] [-cpuprofile f] [-memprofile f] [-trace manifest.json] [-metrics-out metrics.prom]
//
// Each experiment prints the rows/series the paper reports: the two-node
// example tables (1-3), the recall-precision curves of Figures 1-2, the
// time series of Figures 3 and 5, and the density distributions of
// Figures 4 and 6. Simulations are memoised across experiments within one
// invocation, so "-only all" costs far less than the sum of its parts.
//
// Independent experiments run concurrently on -workers goroutines
// (default GOMAXPROCS). Each experiment writes into its own buffer and
// the buffers are flushed in declaration order, so the report is byte
// for byte the same whatever the worker count; per-experiment wall-clock
// timing goes to stderr, keeping nondeterministic durations out of the
// report stream.
//
// With -trace, a machine-readable run manifest (stage timings, seeds,
// build revision and the final metrics snapshot) is written as JSON and
// the stage timing tree is printed to stderr; -metrics-out dumps the same
// metrics in Prometheus text format.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"crossfeature/internal/experiments"
	"crossfeature/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	preset := fs.String("preset", "quick", "experiment scale: quick, paper or smoke")
	only := fs.String("only", "all", "comma-separated experiments: tables, figure1..figure6, ablations, storm, faults, multinode, olsr, all")
	parallel := fs.Int("parallel", 0, "workers for the sub-model fits and the normal-level pass (0 = GOMAXPROCS)")
	workers := fs.Int("workers", 0, "concurrent experiments and trace simulations (0 = GOMAXPROCS)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	traceOut := fs.String("trace", "", "write a run manifest (stage timings, seeds, metrics) to this JSON file")
	metricsOut := fs.String("metrics-out", "", "write the final metrics snapshot in Prometheus text format to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	runStart := time.Now()
	setup := tracer.Start("setup")

	var p experiments.Preset
	switch *preset {
	case "paper":
		p = experiments.PaperPreset()
	case "quick":
		p = experiments.QuickPreset()
	case "smoke":
		p = experiments.SmokePreset()
	default:
		return fmt.Errorf("unknown preset %q (want paper, quick or smoke)", *preset)
	}
	p.Parallelism = *parallel
	p.Workers = *workers

	if *cpuprofile != "" {
		f, ferr := os.Create(*cpuprofile)
		if ferr != nil {
			return fmt.Errorf("cpu profile: %w", ferr)
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			f.Close()
			return fmt.Errorf("cpu profile: %w", perr)
		}
		// Stop and flush via defer, so the profile survives a failed
		// report — a crash-adjacent run is exactly the one worth profiling.
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("cpu profile: %w", cerr)
			}
		}()
	}
	if *memprofile != "" {
		// Created up front: an unwritable path must fail now, not after a
		// potentially hours-long run.
		f, ferr := os.Create(*memprofile)
		if ferr != nil {
			return fmt.Errorf("heap profile: %w", ferr)
		}
		defer func() {
			runtime.GC()
			if werr := pprof.WriteHeapProfile(f); werr != nil && err == nil {
				err = fmt.Errorf("heap profile: %w", werr)
			}
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("heap profile: %w", cerr)
			}
		}()
	}

	lab, err := experiments.NewLab(p)
	if err != nil {
		return err
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*only, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}
	all := want["all"]
	selected := func(name string) bool { return all || want[name] }

	type experiment struct {
		name string
		run  func(io.Writer) error
	}
	exps := []experiment{
		{"tables", func(w io.Writer) error {
			experiments.PrintTable1(w)
			fmt.Fprintln(w)
			experiments.PrintTable2(w)
			fmt.Fprintln(w)
			experiments.PrintTable3(w)
			return nil
		}},
		{"figure1", func(w io.Writer) error { _, err := lab.Figure1(w); return err }},
		{"figure2", func(w io.Writer) error { _, err := lab.Figure2(w); return err }},
		{"figure3", func(w io.Writer) error { _, err := lab.Figure3(w); return err }},
		{"figure4", func(w io.Writer) error { _, err := lab.Figure4(w); return err }},
		{"figure5", func(w io.Writer) error { _, err := lab.Figure5(w); return err }},
		{"figure6", func(w io.Writer) error { _, err := lab.Figure6(w); return err }},
		{"ablations", func(w io.Writer) error { _, err := lab.Ablations(w); return err }},
		{"storm", func(w io.Writer) error { _, err := lab.StormStudy(w); return err }},
		{"faults", func(w io.Writer) error { _, err := lab.FaultRobustness(w); return err }},
		{"multinode", func(w io.Writer) error { _, err := lab.MultiNodeStudy(w, nil); return err }},
		{"olsr", func(w io.Writer) error { _, err := lab.OLSRStudy(w); return err }},
	}
	var picked []experiment
	for _, e := range exps {
		if selected(e.name) {
			picked = append(picked, e)
		}
	}
	if len(picked) == 0 {
		return fmt.Errorf("no experiment matches %q", *only)
	}
	setup.End()

	// Run every selected experiment concurrently, each into its own
	// buffer; the lab's caches coalesce shared traces, datasets and
	// analyzers across them. Buffers flush in declaration order so the
	// report is identical to a serial run.
	expPhase := tracer.Start("experiments")
	lab.Instrument(reg, expPhase)
	nworkers := *workers
	if nworkers <= 0 {
		nworkers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, nworkers)
	type outcome struct {
		buf  bytes.Buffer
		err  error
		done chan struct{}
	}
	outs := make([]*outcome, len(picked))
	for i, e := range picked {
		o := &outcome{done: make(chan struct{})}
		outs[i] = o
		go func(e experiment, o *outcome) {
			defer close(o.done)
			sem <- struct{}{}
			defer func() { <-sem }()
			sp := expPhase.Start("exp:" + e.name)
			defer sp.End()
			start := time.Now()
			fmt.Fprintf(&o.buf, "==== %s (preset=%s) ====\n", e.name, *preset)
			if err := e.run(&o.buf); err != nil {
				o.err = fmt.Errorf("%s: %w", e.name, err)
				return
			}
			fmt.Fprintf(&o.buf, "---- %s done ----\n\n", e.name)
			fmt.Fprintf(os.Stderr, "experiments: %s done in %v\n", e.name, time.Since(start).Round(time.Millisecond))
		}(e, o)
	}
	for _, o := range outs {
		<-o.done
		if o.err != nil {
			return o.err
		}
		if _, err := io.Copy(w, &o.buf); err != nil {
			return err
		}
	}
	expPhase.End()

	if *metricsOut != "" {
		if werr := writeMetricsFile(*metricsOut, reg); werr != nil {
			return werr
		}
	}
	if *traceOut != "" {
		fmt.Fprintln(os.Stderr, "experiments: stage timings:")
		tracer.WriteTree(os.Stderr)
		m := experiments.RunManifest{
			Schema:        experiments.ManifestSchema,
			Preset:        *preset,
			Only:          *only,
			Workers:       nworkers,
			Parallelism:   *parallel,
			Seeds:         p.Seeds(),
			GoVersion:     runtime.Version(),
			BuildRevision: experiments.BuildRevision(),
			TotalSeconds:  time.Since(runStart).Seconds(),
			Simulations:   lab.Simulations(),
			Metrics:       reg.Snapshot(),
		}
		for _, root := range tracer.Roots() {
			m.Stages = append(m.Stages, root.Timing())
		}
		// The experiments phase also parents the lab's simulate/train
		// spans; the manifest keeps only the per-experiment rollups.
		for _, c := range expPhase.Children() {
			if t := c.Timing(); strings.HasPrefix(t.Name, "exp:") {
				m.Experiments = append(m.Experiments, t)
			}
		}
		if werr := m.WriteFile(*traceOut); werr != nil {
			return werr
		}
	}
	return nil
}

// writeMetricsFile dumps the registry in Prometheus text format.
func writeMetricsFile(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics out: %w", err)
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return fmt.Errorf("metrics out: %w", err)
	}
	return f.Close()
}
