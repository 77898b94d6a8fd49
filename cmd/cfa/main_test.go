package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crossfeature/internal/core"
	"crossfeature/internal/features"
)

// writeSyntheticTrace fabricates a trace CSV with correlated features so
// training succeeds quickly.
func writeSyntheticTrace(t *testing.T, path string, records int, anomalous bool, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var vs []features.Vector
	for i := 0; i < records; i++ {
		v := features.Vector{Time: float64(i) * 5, Values: make([]float64, features.NumFeatures)}
		base := rng.Float64() * 10
		for j := range v.Values {
			v.Values[j] = base*float64(j%5+1) + rng.Float64()
		}
		if anomalous && i > records/2 {
			// Break the correlations: scramble half the features.
			for j := 0; j < len(v.Values); j += 2 {
				v.Values[j] = rng.Float64() * 1000
			}
		}
		vs = append(vs, v)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := features.WriteCSV(f, vs); err != nil {
		t.Fatal(err)
	}
}

func TestTrainDetectRoundTrip(t *testing.T) {
	dir := t.TempDir()
	normal := filepath.Join(dir, "normal.csv")
	suspect := filepath.Join(dir, "suspect.csv")
	model := filepath.Join(dir, "model.bin")
	writeSyntheticTrace(t, normal, 200, false, 1)
	writeSyntheticTrace(t, suspect, 100, true, 2)

	var out bytes.Buffer
	err := run([]string{"train", "-in", normal, "-model", model, "-learner", "NBC", "-warmup", "0"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trained NBC detector") {
		t.Errorf("train output: %s", out.String())
	}

	out.Reset()
	if err := run([]string{"detect", "-in", suspect, "-model", model, "-summary"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "flagged as anomalies") {
		t.Errorf("detect output: %s", out.String())
	}
}

// TestTrainC45WritesOneAnalyzer pins that `cfa train` ships only the
// analyzer it trained: no naive-Bayes fallback in the file or the output.
func TestTrainC45WritesOneAnalyzer(t *testing.T) {
	dir := t.TempDir()
	normal := filepath.Join(dir, "normal.csv")
	model := filepath.Join(dir, "model.bin")
	writeSyntheticTrace(t, normal, 200, false, 1)
	var out bytes.Buffer
	if err := run([]string{"train", "-in", normal, "-model", model, "-learner", "C4.5", "-warmup", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); strings.Count(got, "\n") != 0 || !strings.HasPrefix(got, "trained C4.5 detector") {
		t.Errorf("train output: %q, want one trained C4.5 line", got)
	}
	var b core.Bundle
	if err := core.ReadSnapshotFile(model, &b); err != nil {
		t.Fatal(err)
	}
	if b.Fallback != nil {
		t.Error("cfa train wrote a fallback ensemble")
	}
}

func TestTrainRejectsMissingInput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"train"}, &out); err == nil {
		t.Error("train without -in accepted")
	}
	if err := run([]string{"detect"}, &out); err == nil {
		t.Error("detect without -in accepted")
	}
	if err := run([]string{"frobnicate"}, &out); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run(nil, &out); err == nil {
		t.Error("no subcommand accepted")
	}
}

func TestTrainRejectsUnknownLearnerAndScorer(t *testing.T) {
	dir := t.TempDir()
	normal := filepath.Join(dir, "n.csv")
	writeSyntheticTrace(t, normal, 50, false, 3)
	var out bytes.Buffer
	if err := run([]string{"train", "-in", normal, "-learner", "SVM", "-warmup", "0"}, &out); err == nil {
		t.Error("unknown learner accepted")
	}
	if err := run([]string{"train", "-in", normal, "-scorer", "median", "-warmup", "0"}, &out); err == nil {
		t.Error("unknown scorer accepted")
	}
}

func TestDetectThresholdOverride(t *testing.T) {
	dir := t.TempDir()
	normal := filepath.Join(dir, "normal.csv")
	model := filepath.Join(dir, "model.bin")
	writeSyntheticTrace(t, normal, 100, false, 4)
	var out bytes.Buffer
	if err := run([]string{"train", "-in", normal, "-model", model, "-learner", "NBC", "-warmup", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	// Threshold 1.0: everything is an anomaly.
	if err := run([]string{"detect", "-in", normal, "-model", model, "-threshold", "1.01", "-summary"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "100/100 records flagged") {
		t.Errorf("threshold override ignored: %s", out.String())
	}
}

func TestCurveSubcommand(t *testing.T) {
	dir := t.TempDir()
	normal := filepath.Join(dir, "normal.csv")
	normal2 := filepath.Join(dir, "normal2.csv")
	suspect := filepath.Join(dir, "suspect.csv")
	model := filepath.Join(dir, "model.bin")
	writeSyntheticTrace(t, normal, 200, false, 10)
	writeSyntheticTrace(t, normal2, 100, false, 11)
	writeSyntheticTrace(t, suspect, 100, true, 12)
	var out bytes.Buffer
	if err := run([]string{"train", "-in", normal, "-model", model, "-learner", "NBC", "-warmup", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	// The synthetic anomaly begins halfway: onset = 50 records * 5 s.
	err := run([]string{"curve", "-normal", normal2, "-attack", suspect,
		"-model", model, "-onset", "255", "-warmup", "0"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "AUC=") {
		t.Errorf("curve output missing AUC: %s", out.String())
	}
	if err := run([]string{"curve", "-model", model}, &out); err == nil {
		t.Error("curve without inputs accepted")
	}
}

func TestInspectSubcommand(t *testing.T) {
	dir := t.TempDir()
	normal := filepath.Join(dir, "normal.csv")
	model := filepath.Join(dir, "model.bin")
	writeSyntheticTrace(t, normal, 120, false, 20)
	var out bytes.Buffer
	if err := run([]string{"train", "-in", normal, "-model", model, "-learner", "C4.5", "-warmup", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"inspect", "-model", model}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sub-models over") || !strings.Contains(out.String(), "tree:") {
		t.Errorf("inspect summary wrong: %s", out.String())
	}
	out.Reset()
	if err := run([]string{"inspect", "-model", model, "-feature", "velocity"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "tree for target velocity") {
		t.Errorf("inspect feature output wrong: %s", out.String())
	}
	if err := run([]string{"inspect", "-model", model, "-feature", "nonexistent"}, &out); err == nil {
		t.Error("unknown feature accepted")
	}
}

func TestInspectExplain(t *testing.T) {
	dir := t.TempDir()
	normal := filepath.Join(dir, "normal.csv")
	suspect := filepath.Join(dir, "suspect.csv")
	model := filepath.Join(dir, "model.bin")
	writeSyntheticTrace(t, normal, 200, false, 30)
	writeSyntheticTrace(t, suspect, 60, true, 31)
	var out bytes.Buffer
	if err := run([]string{"train", "-in", normal, "-model", model, "-learner", "NBC", "-warmup", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"inspect", "-model", model, "-explain", suspect, "-top", "3", "-drivers", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "explained 60 records") {
		t.Errorf("explain header wrong: %s", got)
	}
	if !strings.Contains(got, "normal ") || !strings.Contains(got, "p=") {
		t.Errorf("explain output missing driver lines: %s", got)
	}
	// Three records, four driver lines each.
	if n := strings.Count(got, "t="); n != 3 {
		t.Errorf("explained %d records, want 3:\n%s", n, got)
	}
	if err := run([]string{"inspect", "-model", model, "-explain", filepath.Join(dir, "missing.csv")}, &out); err == nil {
		t.Error("missing explain trace accepted")
	}
}
