package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"crossfeature/internal/failpoint"
	"crossfeature/internal/features"
	"crossfeature/internal/ml"
	"crossfeature/internal/ml/c45"
	"crossfeature/internal/ml/nbayes"
	"crossfeature/internal/ml/ripper"
)

// testBundle trains a small but real bundle: correlated continuous rows,
// a fitted discretizer and a naive Bayes ensemble.
func testBundle(t testing.TB) *Bundle {
	t.Helper()
	return testBundleOf(t, nbayes.NewLearner())
}

// testBundleRows are the rows testBundleOf trains on.
func testBundleRows() [][]float64 {
	rows := make([][]float64, 0, 120)
	for i := 0; i < 120; i++ {
		base := float64(i % 10)
		rows = append(rows, []float64{base, base * 2, base * 3, float64(i % 3)})
	}
	return rows
}

// testBundleOf is testBundle with the ensemble trained by l.
func testBundleOf(t testing.TB, l ml.Learner) *Bundle {
	t.Helper()
	rows := testBundleRows()
	disc, err := features.Fit(rows, []string{"a", "b", "c", "d"}, features.FitOptions{Buckets: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := disc.Dataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Train(ds, l, TrainOptions{})
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
// bundles whose sub-models Fit could not have produced. Each used to pass
// Validate and then panic when the loader compiled or scored it: a Naive
// Bayes table a class row short (index out of range), a C4.5 tree with a
// corrupt class count (makeslice: cap out of range) and a RIPPER
// condition on a negative attribute (index out of range in matchRow).
// Each damaged bundle must load as ErrSnapshotCorrupt.
func TestLoadBundleFileRejectsMisshapedModels(t *testing.T) {
	tree := func(b *Bundle, i int) *c45.Tree { return b.Analyzer.Models[i].(*c45.Tree) }
	rules := func(b *Bundle) *ripper.RuleSet {
		for _, m := range b.Analyzer.Models {
			if rs := m.(*ripper.RuleSet); len(rs.Rules) > 0 && len(rs.Rules[0].Conds) > 0 {
				return rs
			}
		}
		t.Fatal("test bundle has no RIPPER rule with a condition")
		return nil
	}
	cases := []struct {
		name    string
		learner ml.Learner
		damage  func(b *Bundle)
	}{
		{"class row short", nbayes.NewLearner(), func(b *Bundle) {
			m := b.Analyzer.Models[0].(*nbayes.Model)
			m.LogCond[1] = m.LogCond[1][:len(m.LogCond[1])-1]
		}},
		{"value row short", nbayes.NewLearner(), func(b *Bundle) {
			m := b.Analyzer.Models[2].(*nbayes.Model)
			m.LogCond[0][0] = m.LogCond[0][0][:len(m.LogCond[0][0])-1]
		}},
		{"prior short", nbayes.NewLearner(), func(b *Bundle) {
			m := b.Analyzer.Models[1].(*nbayes.Model)
			m.LogPrior = m.LogPrior[:len(m.LogPrior)-1]
		}},
		{"wrong target", nbayes.NewLearner(), func(b *Bundle) {
			b.Analyzer.Models[3].(*nbayes.Model).Target = 0
		}},
		{"fewer model slots than attributes", nbayes.NewLearner(), func(b *Bundle) {
			b.Analyzer.Models = b.Analyzer.Models[:len(b.Analyzer.Models)-1]
		}},
		{"more model slots than attributes", nbayes.NewLearner(), func(b *Bundle) {
			b.Analyzer.Models = append(b.Analyzer.Models, b.Analyzer.Models[0])
		}},
		{"C4.5 classes", c45.NewLearner(), func(b *Bundle) { tree(b, 0).Classes = -1 }},
		{"C4.5 wrong target", c45.NewLearner(), func(b *Bundle) { tree(b, 1).Target = 2 }},
		{"C4.5 histogram short", c45.NewLearner(), func(b *Bundle) {
			r := tree(b, 2).Root
			r.Counts = r.Counts[:len(r.Counts)-1]
		}},
		{"C4.5 split on target", c45.NewLearner(), func(b *Bundle) {
			tree(b, 0).Root = &c45.Node{Attr: 0, Children: make([]*c45.Node, b.Analyzer.Attrs[0].Card), Counts: tree(b, 0).Root.Counts}
		}},
		{"C4.5 split span short", c45.NewLearner(), func(b *Bundle) {
			tree(b, 0).Root = &c45.Node{Attr: 1, Children: make([]*c45.Node, 2), Counts: tree(b, 0).Root.Counts}
		}},
		{"RIPPER negative attribute", ripper.NewLearner(), func(b *Bundle) { rules(b).Rules[0].Conds[0].Attr = -1 }},
		{"RIPPER value outside attribute", ripper.NewLearner(), func(b *Bundle) {
			c := &rules(b).Rules[0].Conds[0]
			c.Val = b.Analyzer.Attrs[c.Attr].Card
		}},
		{"RIPPER default short", ripper.NewLearner(), func(b *Bundle) {
			rs := rules(b)
			rs.Default = rs.Default[:1]
		}},
		{"RIPPER rule class", ripper.NewLearner(), func(b *Bundle) {
			rs := rules(b)
			rs.Rules[0].Class = rs.Classes
		}},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		b := testBundleOf(t, tc.learner)
		tc.damage(b)
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".bin")
		if err := WriteSnapshotFile(path, b); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBundleFile(path); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: load error = %v, want ErrSnapshotCorrupt", tc.name, err)
		}
	}
	// The undamaged bundles still load and compile.
	for _, l := range []ml.Learner{nbayes.NewLearner(), c45.NewLearner(), ripper.NewLearner()} {
		path := filepath.Join(dir, "good.bin")
		if err := WriteSnapshotFile(path, testBundleOf(t, l)); err != nil {
			t.Fatal(err)
		}
		got, err := LoadBundleFile(path)
		if err != nil {
			t.Fatalf("well-shaped %s bundle rejected: %v", l.Name(), err)
		}
		if st := got.Analyzer.Compile(); st.Models != got.Analyzer.NumModels() {
			t.Fatalf("loaded %s bundle compiled %d of %d models", l.Name(), st.Models, got.Analyzer.NumModels())
		}
	}
}

// TestLoadBundleFileDiscardsFallback pins that the deprecated Fallback
// ensemble is dropped unchecked on load: bundles whose fallback would
// have failed validation load with Fallback nil and their analyzer
// intact.
func TestLoadBundleFileDiscardsFallback(t *testing.T) {
	cases := map[string]func(fb *Analyzer){
		"fallback class row short": func(fb *Analyzer) {
			m := fb.Models[0].(*nbayes.Model)
			m.LogCond[2] = m.LogCond[2][:1]
		},
		"fallback cardinality": func(fb *Analyzer) {
			fb.Attrs = append([]ml.Attr(nil), fb.Attrs...)
			fb.Attrs[3].Card++
		},
	}
	dir := t.TempDir()
	for name, damage := range cases {
		b := testBundle(t)
		fb := testBundle(t).Analyzer
		damage(fb)
		b.Fallback = fb
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".bin")
		if err := WriteSnapshotFile(path, b); err != nil {
			t.Fatal(err)
		}
		got, err := LoadBundleFile(path)
		if err != nil {
			t.Fatalf("%s: load error = %v, want the fallback discarded", name, err)
		}
		if got.Fallback != nil {
			t.Errorf("%s: loaded bundle keeps its fallback", name)
		}
		if got.Analyzer.NumModels() != b.Analyzer.NumModels() {
			t.Errorf("%s: loaded %d sub-models, want %d", name, got.Analyzer.NumModels(), b.Analyzer.NumModels())
		}
	}
}

// legacyBundleDigest is an FNV-1a digest over the float64 bits of the
// primary analyzer's Probability scores on testBundle's 120 rows,
// recorded when testdata/legacy_c45_nbfallback.bin was written.
const legacyBundleDigest = 0xb276ca156f472f35

// TestLegacyFallbackBundle loads a bundle written the way `cfa train
// -learner C4.5` wrote them while bundles carried a naive-Bayes fallback:
// a C4.5 analyzer plus the fallback ensemble and its threshold. It must
// load with the fallback dropped and score through its analyzer exactly
// as it did when it was written, through Score and through ScoreAll on
// both sides of the row-major/columnar choice.
func TestLegacyFallbackBundle(t *testing.T) {
	b, err := LoadBundleFile(filepath.Join("testdata", "legacy_c45_nbfallback.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Fallback != nil {
		t.Fatal("legacy bundle loaded with its fallback")
	}
	if b.Analyzer.LearnerName != "C4.5" {
		t.Fatalf("legacy analyzer learner = %q, want C4.5", b.Analyzer.LearnerName)
	}
	rows := make([][]float64, 0, 120)
	for i := 0; i < 120; i++ {
		base := float64(i % 10)
		rows = append(rows, []float64{base, base * 2, base * 3, float64(i % 3)})
	}
	ds, err := b.Discretizer.Dataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	all := b.Analyzer.ScoreAll(ds, b.Scorer)
	h := uint64(14695981039346656037)
	for i, v := range all {
		h ^= math.Float64bits(v)
		h *= 1099511628211
		if one := b.Analyzer.Score(ds.X[i], b.Scorer); math.Float64bits(one) != math.Float64bits(v) {
			t.Fatalf("row %d: Score %v != ScoreAll %v", i, one, v)
		}
		if few := b.Analyzer.ScoreAll(ml.DatasetOf(ds.Attrs, ds.X[i:i+1]), b.Scorer)[0]; math.Float64bits(few) != math.Float64bits(v) {
			t.Fatalf("row %d: one-row ScoreAll %v != ScoreAll %v", i, few, v)
		}
	}
	if h != legacyBundleDigest {
		t.Fatalf("legacy bundle score digest %#x, want %#x", h, uint64(legacyBundleDigest))
	}
}

// legacyNBCDigest is legacyBundleDigest's digest for
// testdata/legacy_nbc.bin, recorded when it was written: a snapshot
// version 1 bundle, written as `cfa train -learner NBC` writes one, of
// testBundleOf's rows with Naive Bayes sub-models.
const legacyNBCDigest = 0x3355ab57137ce0dd

// TestLegacyNBCBundle loads a bundle whose Naive Bayes models gob wrote
// as structs, before they had a binary encoding. Every model must load as
// an *nbayes.Model, the ensemble must compile to the fused kernel, and it
// must score exactly as it did when it was written, through Score and
// through ScoreAll.
func TestLegacyNBCBundle(t *testing.T) {
	path := filepath.Join("testdata", "legacy_nbc.bin")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReadFrame(f, snapshotMagic, 1)
	f.Close()
	if err != nil {
		t.Fatalf("fixture is not a version 1 snapshot: %v", err)
	}
	b, err := LoadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range b.Analyzer.Models {
		if _, ok := m.(*nbayes.Model); !ok {
			t.Fatalf("sub-model %d loaded as %T, want *nbayes.Model", i, m)
		}
	}
	if st := b.Analyzer.Compile(); st.Models != 4 || st.TableEntries == 0 {
		t.Fatalf("legacy NBC bundle compiled %d models, %d fused table entries; want 4 fused", st.Models, st.TableEntries)
	}
	ds, err := b.Discretizer.Dataset(testBundleRows())
	if err != nil {
		t.Fatal(err)
	}
	all := b.Analyzer.ScoreAll(ds, b.Scorer)
	h := uint64(14695981039346656037)
	for i, v := range all {
		h ^= math.Float64bits(v)
		h *= 1099511628211
		if one := b.Analyzer.Score(ds.X[i], b.Scorer); math.Float64bits(one) != math.Float64bits(v) {
			t.Fatalf("row %d: Score %v != ScoreAll %v", i, one, v)
		}
	}
	if h != legacyNBCDigest {
		t.Fatalf("legacy NBC bundle score digest %#x, want %#x", h, uint64(legacyNBCDigest))
	}
}

// TestSnapshotVersion2RoundTrip writes a bundle of each learner in the
// current format and reads it back: it must be stamped version 2, which a
// build that reads only version 1 refuses as ErrSnapshotFormat, and it
// must load with the same model types and score every row bit for bit as
// the analyzer that wrote it, under both scorers.
func TestSnapshotVersion2RoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, l := range []ml.Learner{nbayes.NewLearner(), c45.NewLearner(), ripper.NewLearner()} {
		b := testBundleOf(t, l)
		path := filepath.Join(dir, l.Name()+".bin")
		if err := b.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.BigEndian.Uint16(data[4:6]); v != 2 {
			t.Fatalf("%s: snapshot version %d, want 2", l.Name(), v)
		}
		if _, err := ReadFrame(bytes.NewReader(data), snapshotMagic, 1); !errors.Is(err, ErrSnapshotFormat) {
			t.Fatalf("%s: a version 1 reader gets %v, want ErrSnapshotFormat", l.Name(), err)
		}
		got, err := LoadBundleFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range got.Analyzer.Models {
			if want := b.Analyzer.Models[i]; reflect.TypeOf(m) != reflect.TypeOf(want) {
				t.Fatalf("%s: sub-model %d loaded as %T, want %T", l.Name(), i, m, want)
			}
		}
		if st := got.Analyzer.Compile(); st.Models != 4 {
			t.Fatalf("%s: loaded bundle compiled %d of 4 models", l.Name(), st.Models)
		}
		ds, err := b.Discretizer.Dataset(testBundleRows())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Scorer{MatchCount, Probability} {
			want, all := b.Analyzer.ScoreAll(ds, s), got.Analyzer.ScoreAll(ds, s)
			for i := range want {
				one := got.Analyzer.Score(ds.X[i], s)
				if math.Float64bits(all[i]) != math.Float64bits(want[i]) || math.Float64bits(one) != math.Float64bits(want[i]) {
					t.Fatalf("%s/%v row %d: reloaded ScoreAll %v, Score %v; the writer scored %v", l.Name(), s, i, all[i], one, want[i])
				}
			}
		}
	}
}

// TestLoadRejectsMisshapedAnalyzer is the regression test for analyzer
// snapshots whose sub-models Fit could not have produced: Load returned
// them without the shape check bundles get, and the first Score of a
// Naive Bayes analyzer with a table cut to one class row panicked with
// index out of range. Load, LoadFile and the public LoadAnalyzer (which
// is Load) must reject each as ErrSnapshotCorrupt.
func TestLoadRejectsMisshapedAnalyzer(t *testing.T) {
	cases := []struct {
		name    string
		learner ml.Learner
		damage  func(a *Analyzer)
	}{
		{"NBC class rows cut to one", nbayes.NewLearner(), func(a *Analyzer) {
			m := a.Models[0].(*nbayes.Model)
			m.LogCond[1] = m.LogCond[1][:1]
		}},
		{"C4.5 histogram short", c45.NewLearner(), func(a *Analyzer) {
			r := a.Models[2].(*c45.Tree).Root
			r.Counts = r.Counts[:len(r.Counts)-1]
		}},
		{"RIPPER default short", ripper.NewLearner(), func(a *Analyzer) {
			rs := a.Models[1].(*ripper.RuleSet)
			rs.Default = rs.Default[:1]
		}},
		{"model slot missing", nbayes.NewLearner(), func(a *Analyzer) { a.Models = a.Models[:3] }},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		a := testBundleOf(t, tc.learner).Analyzer
		tc.damage(a)
		var buf bytes.Buffer
		if err := a.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: Load error = %v, want ErrSnapshotCorrupt", tc.name, err)
		}
		path := filepath.Join(dir, "analyzer.bin")
		if err := a.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: LoadFile error = %v, want ErrSnapshotCorrupt", tc.name, err)
		}
	}
	// The undamaged analyzers still load.
	for _, l := range []ml.Learner{nbayes.NewLearner(), c45.NewLearner(), ripper.NewLearner()} {
		var buf bytes.Buffer
		if err := testBundleOf(t, l).Analyzer.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err != nil {
			t.Errorf("well-shaped %s analyzer rejected: %v", l.Name(), err)
		}
	}
}

// TestReadFrameBoundsAllocation is the regression test for a frame header
// that overstates its payload: ReadFrame used to reserve the declared
// length before reading a byte, so an 18-byte file could allocate up to
// 2 GiB. Past frameChunk the buffer now grows only with bytes that
// arrive.
func TestReadFrameBoundsAllocation(t *testing.T) {
	var hdr [FrameHeaderLen]byte
	copy(hdr[:4], snapshotMagic)
	binary.BigEndian.PutUint16(hdr[4:6], snapshotVersion)
	binary.BigEndian.PutUint64(hdr[10:18], 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(hdr[:]), snapshotMagic, snapshotVersion)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("header-only 1 GiB frame: error = %v, want ErrSnapshotCorrupt", err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(frameChunk+1<<20); got > limit {
		t.Fatalf("header-only 1 GiB frame allocated %d bytes, want at most %d", got, limit)
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
