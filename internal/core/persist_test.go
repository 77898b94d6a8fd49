package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crossfeature/internal/failpoint"
	"crossfeature/internal/features"
	"crossfeature/internal/ml"
	"crossfeature/internal/ml/nbayes"
)

// testBundle trains a small but real bundle: correlated continuous rows,
// a fitted discretizer and a naive Bayes ensemble.
func testBundle(t *testing.T) *Bundle {
	t.Helper()
	rows := make([][]float64, 0, 120)
	for i := 0; i < 120; i++ {
		base := float64(i % 10)
		rows = append(rows, []float64{base, base * 2, base * 3, float64(i % 3)})
	}
	disc, err := features.Fit(rows, []string{"a", "b", "c", "d"}, features.FitOptions{Buckets: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := disc.Dataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Train(ds, nbayes.NewLearner(), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scores := a.ScoreAll(ds, Probability)
	return &Bundle{Analyzer: a, Discretizer: disc, Threshold: Threshold(scores, 0.02), Scorer: Probability}
}

func TestSnapshotRoundTrip(t *testing.T) {
	b := testBundle(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, b); err != nil {
		t.Fatal(err)
	}
	var got Bundle
	if err := ReadSnapshot(bytes.NewReader(buf.Bytes()), &got); err != nil {
		t.Fatal(err)
	}
	if got.Threshold != b.Threshold || got.Scorer != b.Scorer {
		t.Errorf("round trip lost calibration: %+v", got)
	}
	if got.Analyzer.NumModels() != b.Analyzer.NumModels() {
		t.Errorf("round trip lost sub-models: %d != %d", got.Analyzer.NumModels(), b.Analyzer.NumModels())
	}
	// The reloaded model must score identically.
	x, err := got.Discretizer.Transform([]float64{4, 8, 12, 1})
	if err != nil {
		t.Fatal(err)
	}
	if w, g := b.Analyzer.Score(x, b.Scorer), got.Analyzer.Score(x, got.Scorer); w != g {
		t.Errorf("reloaded score %v != original %v", g, w)
	}
}

func TestSnapshotRejectsDamage(t *testing.T) {
	b := testBundle(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, b); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	var legacy bytes.Buffer
	RegisterGobModels()
	if err := gob.NewEncoder(&legacy).Encode(b); err != nil {
		t.Fatal(err)
	}

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xff
	badVersion := append([]byte(nil), good...)
	badVersion[5] = 99
	trailing := append(append([]byte(nil), good...), 'x')

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrSnapshotCorrupt},
		{"truncated header", good[:10], ErrSnapshotCorrupt},
		{"truncated payload", good[:len(good)/2], ErrSnapshotCorrupt},
		{"payload bit flip", flipped, ErrSnapshotCorrupt},
		{"trailing data", trailing, ErrSnapshotCorrupt},
		{"legacy raw gob", legacy.Bytes(), ErrSnapshotFormat},
		{"future version", badVersion, ErrSnapshotFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got Bundle
			err := ReadSnapshot(bytes.NewReader(tc.data), &got)
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
			if strings.ContainsRune(err.Error(), '\n') {
				t.Errorf("error spans multiple lines: %q", err)
			}
		})
	}
}

func TestSnapshotChecksumCoversWholePayload(t *testing.T) {
	b := testBundle(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, b); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one byte at several depths inside the payload; every corruption
	// must be caught before gob sees it.
	for _, off := range []int{snapshotHdrLen, snapshotHdrLen + 100, len(data) / 2, len(data) - 2} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x20
		var got Bundle
		if err := ReadSnapshot(bytes.NewReader(mut), &got); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("flip at %d: error = %v, want checksum failure", off, err)
		}
	}
}

func TestAnalyzerSaveLoadFile(t *testing.T) {
	b := testBundle(t)
	path := filepath.Join(t.TempDir(), "analyzer.bin")
	if err := b.Analyzer.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumModels() != b.Analyzer.NumModels() {
		t.Errorf("NumModels = %d, want %d", got.NumModels(), b.Analyzer.NumModels())
	}
}

func TestLoadBundleFileValidates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	// A structurally hollow bundle decodes fine but must still be rejected.
	if err := WriteSnapshotFile(path, &Bundle{Threshold: 0.5, Scorer: Probability}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundleFile(path); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("hollow bundle error = %v, want ErrSnapshotCorrupt", err)
	}
	if _, err := LoadBundleFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestLoadBundleFileRejectsMisshapedModels is the regression test for
// bundles whose Naive Bayes tables Fit could not have produced: one
// conditional table a class row short used to pass Validate and then
// panic (index out of range) when the loader compiled it. Each damaged
// bundle, primary or fallback, must load as ErrSnapshotCorrupt.
func TestLoadBundleFileRejectsMisshapedModels(t *testing.T) {
	cases := map[string]func(b *Bundle){
		"class row short": func(b *Bundle) {
			m := b.Analyzer.Models[0].(*nbayes.Model)
			m.LogCond[1] = m.LogCond[1][:len(m.LogCond[1])-1]
		},
		"value row short": func(b *Bundle) {
			m := b.Analyzer.Models[2].(*nbayes.Model)
			m.LogCond[0][0] = m.LogCond[0][0][:len(m.LogCond[0][0])-1]
		},
		"prior short": func(b *Bundle) {
			m := b.Analyzer.Models[1].(*nbayes.Model)
			m.LogPrior = m.LogPrior[:len(m.LogPrior)-1]
		},
		"wrong target": func(b *Bundle) {
			b.Analyzer.Models[3].(*nbayes.Model).Target = 0
		},
		"fewer model slots than attributes": func(b *Bundle) {
			b.Analyzer.Models = b.Analyzer.Models[:len(b.Analyzer.Models)-1]
		},
		"more model slots than attributes": func(b *Bundle) {
			b.Analyzer.Models = append(b.Analyzer.Models, b.Analyzer.Models[0])
		},
		"fallback class row short": func(b *Bundle) {
			fb := testBundle(t).Analyzer
			m := fb.Models[0].(*nbayes.Model)
			m.LogCond[2] = m.LogCond[2][:1]
			b.Fallback, b.FallbackThreshold = fb, 0.5
		},
	}
	dir := t.TempDir()
	for name, damage := range cases {
		b := testBundle(t)
		damage(b)
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".bin")
		if err := WriteSnapshotFile(path, b); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBundleFile(path); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: load error = %v, want ErrSnapshotCorrupt", name, err)
		}
	}
	// The undamaged bundle, fallback included, still loads and scores.
	b := testBundle(t)
	b.Fallback, b.FallbackThreshold = testBundle(t).Analyzer, 0.5
	path := filepath.Join(dir, "good.bin")
	if err := WriteSnapshotFile(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBundleFile(path)
	if err != nil {
		t.Fatalf("well-shaped bundle rejected: %v", err)
	}
	if st := got.Analyzer.Compile(); st.Models != got.Analyzer.NumModels() {
		t.Fatalf("loaded bundle compiled %d of %d models", st.Models, got.Analyzer.NumModels())
	}
}

// TestLoadBundleFileRejectsMisshapedDiscretizer is the regression test
// for bundles whose discretiser Fit could not have produced: a Min with 1
// entry against 4 cut lists used to load, and then every record's
// transform panicked with index out of range. Each damaged bundle must
// load as ErrSnapshotCorrupt.
func TestLoadBundleFileRejectsMisshapedDiscretizer(t *testing.T) {
	cases := map[string]func(b *Bundle){
		"short min": func(b *Bundle) { b.Discretizer.Min = b.Discretizer.Min[:1] },
		"short max": func(b *Bundle) { b.Discretizer.Max = b.Discretizer.Max[:3] },
		"NaN cut":   func(b *Bundle) { b.Discretizer.Cuts[0][0] = math.NaN() },
		"inf cut":   func(b *Bundle) { b.Discretizer.Cuts[1][0] = math.Inf(-1) },
		"cuts out of order": func(b *Bundle) {
			c := b.Discretizer.Cuts[2]
			c[0], c[1] = c[1], c[0]
		},
		"repeated cut":  func(b *Bundle) { b.Discretizer.Cuts[0][1] = b.Discretizer.Cuts[0][0] },
		"min above max": func(b *Bundle) { b.Discretizer.Min[1] = b.Discretizer.Max[1] + 1 },
		"infinite max":  func(b *Bundle) { b.Discretizer.Max[0] = math.Inf(1) },
		"extra cut": func(b *Bundle) {
			// Still finite and ascending, but the analyzer's attribute now
			// has one value fewer than the discretiser produces.
			c := b.Discretizer.Cuts[0]
			b.Discretizer.Cuts[0] = append(c, c[len(c)-1]+0.5)
		},
		"missing cut": func(b *Bundle) {
			b.Discretizer.Cuts[1] = b.Discretizer.Cuts[1][:len(b.Discretizer.Cuts[1])-1]
		},
		"fallback cardinality": func(b *Bundle) {
			fb := testBundle(t).Analyzer
			fb.Attrs = append([]ml.Attr(nil), fb.Attrs...)
			fb.Attrs[3].Card++
			b.Fallback, b.FallbackThreshold = fb, 0.5
		},
	}
	for j, cuts := range testBundle(t).Discretizer.Cuts[:3] {
		if len(cuts) < 2 {
			t.Fatalf("test bundle feature %d has %d cuts; the cases need 2", j, len(cuts))
		}
	}
	dir := t.TempDir()
	for name, damage := range cases {
		b := testBundle(t)
		damage(b)
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".bin")
		if err := WriteSnapshotFile(path, b); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBundleFile(path); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: load error = %v, want ErrSnapshotCorrupt", name, err)
		}
	}
}

func TestBundleSaveFileRefusesInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := (&Bundle{}).SaveFile(path); err == nil {
		t.Fatal("empty bundle saved")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("invalid bundle left a file behind: %v", err)
	}
}

func TestWriteSnapshotFileAtomicUnderInterruption(t *testing.T) {
	b := testBundle(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a crash after the payload is written but before the rename
	// (the core/persist/pre-rename failpoint): the destination must be
	// byte-identical and no temp litter remains.
	if err := failpoint.Arm("core/persist/pre-rename", "error(crash mid-write)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm("core/persist/pre-rename")
	b.Threshold *= 0.5
	if err := b.SaveFile(path); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("interrupted write error = %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("interrupted write altered the installed model file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "model.bin" {
			t.Errorf("interrupted write left %q behind", e.Name())
		}
	}
	// And the surviving file still loads.
	if _, err := LoadBundleFile(path); err != nil {
		t.Errorf("surviving model unreadable: %v", err)
	}
}

// TestSnapshotTruncationSweep truncates a snapshot at every byte offset
// and asserts each prefix fails with an ErrSnapshot* class error — never
// a panic, never a silently partial bundle.
func TestSnapshotTruncationSweep(t *testing.T) {
	b := testBundle(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, b); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		var got Bundle
		err := ReadSnapshot(bytes.NewReader(data[:cut]), &got)
		if err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(data))
		}
		if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotFormat) {
			t.Fatalf("truncation at %d: error %v is not a snapshot-class error", cut, err)
		}
	}
}

// TestWriteSnapshotFilePayloadFailpoints drives the two write-path
// failpoints: an injected write error must leave the old file intact,
// and a torn write (partial) must produce a file the loader rejects as
// corrupt rather than serving half a model.
func TestWriteSnapshotFilePayloadFailpoints(t *testing.T) {
	b := testBundle(t)
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("write error keeps old file", func(t *testing.T) {
		if err := failpoint.Arm("core/persist/payload", "error(disk full)"); err != nil {
			t.Fatal(err)
		}
		defer failpoint.Disarm("core/persist/payload")
		if err := b.SaveFile(path); !errors.Is(err, failpoint.ErrInjected) {
			t.Fatalf("injected write failure returned %v", err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Error("failed write altered the installed model")
		}
	})

	t.Run("torn write installs a rejectable file", func(t *testing.T) {
		if err := failpoint.Arm("core/persist/payload", "partial(25)"); err != nil {
			t.Fatal(err)
		}
		defer failpoint.Disarm("core/persist/payload")
		// The torn write itself "succeeds" — the crash happened after the
		// rename in this scenario — but the loader must refuse the result.
		if err := b.SaveFile(path); err != nil {
			t.Fatalf("torn write surfaced an error: %v", err)
		}
		if _, err := LoadBundleFile(path); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("torn file load error = %v, want ErrSnapshotCorrupt", err)
		}
		// Recovery: a clean save over the torn file works.
		failpoint.Disarm("core/persist/payload")
		if err := b.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBundleFile(path); err != nil {
			t.Errorf("recovered model unreadable: %v", err)
		}
	})
}

// TestFrameRoundTripForeignMagic pins the exported frame API the serve
// checkpoint format builds on: a frame reads back only under its own
// magic and version.
func TestFrameRoundTripForeignMagic(t *testing.T) {
	payload := []byte("per-stream detector state goes here")
	var buf bytes.Buffer
	if err := WriteFrame(&buf, "CFAC", 1, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(bytes.NewReader(buf.Bytes()), "CFAC", 1)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %v %q", err, got)
	}
	if _, err := ReadFrame(bytes.NewReader(buf.Bytes()), "CFAS", 1); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("foreign magic error = %v, want ErrSnapshotFormat", err)
	}
	if _, err := ReadFrame(bytes.NewReader(buf.Bytes()), "CFAC", 2); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("future version error = %v, want ErrSnapshotFormat", err)
	}
	if err := WriteFrame(&buf, "TOOLONG", 1, payload); err == nil {
		t.Error("5+ byte magic accepted")
	}
}
