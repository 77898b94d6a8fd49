// Command cfa trains and applies cross-feature analysis detectors on
// trace CSVs produced by cmd/manetsim.
//
// Train a detector on a normal trace:
//
//	cfa train -in normal.csv -model model.bin -learner C4.5
//
// Score a trace with a trained model:
//
//	cfa detect -in suspect.csv -model model.bin -scorer probability
//
// Detect prints one line per record: time, score and the normal/anomaly
// verdict at the calibrated threshold.
//
// Serve a trained model over HTTP with load-shedding and hot reload:
//
//	cfa serve -model model.bin -addr :8080
//
// Drive a running serve endpoint with reproducible load and measure the
// goodput-vs-offered-load curve:
//
//	cfa loadgen -target http://127.0.0.1:8080 -rate 2000 -multipliers 1,2,4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"crossfeature/internal/core"
	"crossfeature/internal/experiments"
	"crossfeature/internal/features"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cfa:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: cfa <train|detect|curve|inspect|serve|loadgen> [flags]")
	}
	switch args[0] {
	case "train":
		return train(args[1:], w)
	case "detect":
		return detect(args[1:], w)
	case "curve":
		return curve(args[1:], w)
	case "inspect":
		return inspect(args[1:], w)
	case "serve":
		return serveCmd(args[1:], w)
	case "loadgen":
		return loadgenCmd(args[1:], w)
	default:
		return fmt.Errorf("unknown subcommand %q (want train, detect, curve, inspect, serve or loadgen)", args[0])
	}
}

func train(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cfa train", flag.ContinueOnError)
	in := fs.String("in", "", "normal-trace CSV (required)")
	model := fs.String("model", "model.bin", "output model path")
	learnerName := fs.String("learner", "C4.5", "base learner: C4.5, RIPPER or NBC")
	buckets := fs.Int("buckets", features.DefaultBuckets, "equal-frequency buckets")
	warmup := fs.Float64("warmup", 900, "seconds of trace to skip while windows fill")
	far := fs.Float64("false-alarm-rate", 0.02, "calibration false-alarm rate")
	scorer := fs.String("scorer", "probability", "combination rule: probability or matchcount")
	parallel := fs.Int("parallel", 0, "sub-model training parallelism (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	sc, err := parseScorer(*scorer)
	if err != nil {
		return err
	}
	learner, err := experiments.LearnerByName(*learnerName)
	if err != nil {
		return err
	}
	vectors, err := readTrace(*in)
	if err != nil {
		return err
	}
	var rows [][]float64
	for _, v := range vectors {
		if v.Time >= *warmup {
			rows = append(rows, v.Values)
		}
	}
	if len(rows) == 0 {
		return fmt.Errorf("no records past the %gs warmup in %s", *warmup, *in)
	}
	disc, err := features.Fit(rows, features.Names(), features.FitOptions{Buckets: *buckets, Seed: 1})
	if err != nil {
		return err
	}
	ds, err := disc.Dataset(rows)
	if err != nil {
		return err
	}
	analyzer, err := core.Train(ds, learner, core.TrainOptions{Parallelism: *parallel})
	if err != nil {
		return err
	}
	scores := analyzer.ScoreAll(ds, sc)
	th, dropped := core.Calibrate(scores, *far)
	if dropped > 0 {
		fmt.Fprintf(w, "warning: dropped %d non-finite scores during calibration\n", dropped)
	}
	b := &core.Bundle{
		Analyzer:    analyzer,
		Discretizer: disc,
		Threshold:   th,
		Scorer:      sc,
	}
	// SaveFile writes a checksummed snapshot via temp-file + rename, so a
	// crash mid-write never leaves a half-written model behind.
	if err := b.SaveFile(*model); err != nil {
		return err
	}
	fmt.Fprintf(w, "trained %s detector: %d sub-models on %d records, threshold %.4f -> %s\n",
		learner.Name(), analyzer.NumModels(), len(rows), b.Threshold, *model)
	return nil
}

func detect(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cfa detect", flag.ContinueOnError)
	in := fs.String("in", "", "trace CSV to score (required)")
	model := fs.String("model", "model.bin", "model path from cfa train")
	threshold := fs.Float64("threshold", -1, "override the calibrated decision threshold")
	summary := fs.Bool("summary", false, "print only the alarm summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	mf, err := core.LoadBundleFile(*model)
	if err != nil {
		return err
	}
	th := mf.Threshold
	if *threshold >= 0 {
		th = *threshold
	}
	vectors, err := readTrace(*in)
	if err != nil {
		return err
	}
	alarms := 0
	for _, v := range vectors {
		x, err := mf.Discretizer.Transform(v.Values)
		if err != nil {
			return err
		}
		score := mf.Analyzer.Score(x, mf.Scorer)
		anomaly := score < th
		if anomaly {
			alarms++
		}
		if !*summary {
			verdict := "normal"
			if anomaly {
				verdict = "ANOMALY"
			}
			fmt.Fprintf(w, "%.0f\t%.4f\t%s\n", v.Time, score, verdict)
		}
	}
	fmt.Fprintf(w, "cfa: %d/%d records flagged as anomalies (threshold %.4f, %s)\n",
		alarms, len(vectors), th, mf.Scorer)
	return nil
}

func parseScorer(s string) (core.Scorer, error) {
	switch s {
	case "probability":
		return core.Probability, nil
	case "matchcount":
		return core.MatchCount, nil
	default:
		return 0, fmt.Errorf("unknown scorer %q (want probability or matchcount)", s)
	}
}

func readTrace(path string) ([]features.Vector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return features.ReadCSV(f)
}
