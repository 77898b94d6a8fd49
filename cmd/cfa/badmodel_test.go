package main

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crossfeature/internal/core"
	"crossfeature/internal/ml/nbayes"
)

// TestCommandsRejectBadModels drives every model-consuming subcommand
// over every flavour of damaged model file and demands the same failure
// contract from each: a non-nil, single-line error that names the model
// path, with no panic and no partial output.
func TestCommandsRejectBadModels(t *testing.T) {
	dir := t.TempDir()
	normal := filepath.Join(dir, "normal.csv")
	attack := filepath.Join(dir, "attack.csv")
	good := filepath.Join(dir, "good.bin")
	writeSyntheticTrace(t, normal, 120, false, 30)
	writeSyntheticTrace(t, attack, 60, true, 31)
	var out bytes.Buffer
	if err := run([]string{"train", "-in", normal, "-model", good, "-learner", "NBC", "-warmup", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	goodBytes, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	damage := []struct {
		name  string
		write func(t *testing.T, path string)
	}{
		{"missing", func(t *testing.T, path string) {}},
		{"empty", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, path string) {
			if err := os.WriteFile(path, goodBytes[:len(goodBytes)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped", func(t *testing.T, path string) {
			bad := append([]byte(nil), goodBytes...)
			bad[len(bad)/2] ^= 0x40
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"legacy-gob", func(t *testing.T, path string) {
			// A pre-snapshot model: raw gob with no header. Must be
			// rejected by the format check, not crash the decoder.
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			core.RegisterGobModels()
			if err := gob.NewEncoder(f).Encode(struct{ Threshold float64 }{0.5}); err != nil {
				t.Fatal(err)
			}
		}},
		{"misshaped-nb", func(t *testing.T, path string) {
			// A well-framed bundle whose first NB table is a class row
			// short: it must fail validation, not panic the compile.
			b, err := core.LoadBundleFile(good)
			if err != nil {
				t.Fatal(err)
			}
			m := b.Analyzer.Models[0].(*nbayes.Model)
			m.LogCond[1] = m.LogCond[1][:len(m.LogCond[1])-1]
			if err := core.WriteSnapshotFile(path, b); err != nil {
				t.Fatal(err)
			}
		}},
		{"misshaped-discretizer", func(t *testing.T, path string) {
			// A well-framed bundle whose discretiser has one range
			// minimum for every feature's cuts: it must fail
			// validation, not panic every transform.
			b, err := core.LoadBundleFile(good)
			if err != nil {
				t.Fatal(err)
			}
			b.Discretizer.Min = b.Discretizer.Min[:1]
			if err := core.WriteSnapshotFile(path, b); err != nil {
				t.Fatal(err)
			}
		}},
	}
	commands := []struct {
		name string
		args func(model string) []string
	}{
		{"detect", func(m string) []string { return []string{"detect", "-in", normal, "-model", m} }},
		{"curve", func(m string) []string {
			return []string{"curve", "-normal", normal, "-attack", attack, "-model", m, "-warmup", "0"}
		}},
		{"inspect", func(m string) []string { return []string{"inspect", "-model", m} }},
		{"serve", func(m string) []string { return []string{"serve", "-model", m, "-addr", "127.0.0.1:0"} }},
	}

	for _, d := range damage {
		for _, c := range commands {
			t.Run(d.name+"/"+c.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "model.bin")
				d.write(t, path)
				var out bytes.Buffer
				err := run(c.args(path), &out)
				if err == nil {
					t.Fatalf("%s accepted a %s model", c.name, d.name)
				}
				msg := err.Error()
				if strings.Contains(msg, "\n") {
					t.Errorf("error is not a single line: %q", msg)
				}
				if !strings.Contains(msg, "model.bin") {
					t.Errorf("error does not name the model file: %q", msg)
				}
			})
		}
	}
}
