package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"crossfeature/internal/ml"
	"crossfeature/internal/ml/c45"
	"crossfeature/internal/ml/nbayes"
	"crossfeature/internal/ml/ripper"
)

// fuzzRow decodes fuzz bytes into one raw event row: a sequence of signed
// varints, one feature value each, so rows take any length and any int
// value. A byte that starts no complete varint becomes one small signed
// value, so every input decodes.
func fuzzRow(data []byte) []int {
	var x []int
	for len(data) > 0 {
		v, n := binary.Varint(data)
		if n <= 0 {
			v, n = int64(int8(data[0])), 1
		}
		x = append(x, int(v))
		data = data[n:]
	}
	return x
}

// fuzzEncode is fuzzRow's inverse, for seeding the corpus.
func fuzzEncode(x []int) []byte {
	var out []byte
	for _, v := range x {
		out = binary.AppendVarint(out, int64(v))
	}
	return out
}

// FuzzScoreEvents scores one raw row of any length and any values through
// the compiled paths — ScoreEvents, Score, ScoreAll and Explain — of NBC,
// C4.5 and RIPPER analyzers, and pins every score bit-equal to the
// reference AvgMatchCount/AvgProbability and every Explain contribution
// to the sub-model's own class distribution.
func FuzzScoreEvents(f *testing.F) {
	rng := rand.New(rand.NewSource(61))
	train := compileTestDataset(rng, 300)
	var analyzers []*Analyzer
	for _, l := range []ml.Learner{nbayes.NewLearner(), c45.NewLearner(), ripper.NewLearner()} {
		a, err := Train(train, l, TrainOptions{Parallelism: 1})
		if err != nil {
			f.Fatal(err)
		}
		analyzers = append(analyzers, a)
	}

	f.Add([]byte{})
	for _, x := range train.X[:4] {
		f.Add(fuzzEncode(x))
		f.Add(fuzzEncode(x[:len(x)/2]))                     // short row
		f.Add(fuzzEncode(append(append([]int{}, x...), 3))) // over-long row
	}
	guard := make([]int, len(train.Attrs)) // every attribute's top value
	for j, at := range train.Attrs {
		guard[j] = at.Card - 1
	}
	f.Add(fuzzEncode(guard))
	f.Add(fuzzEncode([]int{-1, 1 << 40, math.MinInt64, math.MaxInt64, 0, 2, -7}))

	f.Fuzz(func(t *testing.T, data []byte) {
		x := fuzzRow(data)
		for _, a := range analyzers {
			for _, s := range []Scorer{MatchCount, Probability} {
				want := a.AvgProbability(x)
				if s == MatchCount {
					want = a.AvgMatchCount(x)
				}
				got := map[string]float64{
					"ScoreEvents": a.ScoreEvents([][]int{x}, s)[0],
					"Score":       a.Score(x, s),
					"ScoreAll":    a.ScoreAll(ml.DatasetOf(a.Attrs, [][]int{x}), s)[0],
				}
				for path, g := range got {
					if math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("%s/%v %s(%v) = %v, reference %v", a.LearnerName, s, path, x, g, want)
					}
				}
			}
			checkExplain(t, a, x)
		}
	})
}

// TestMain caps the fuzz engine's minimisation of each new input at one
// second unless -test.fuzzminimizetime is given. FuzzLoadBundle's inputs
// are kilobytes of gob and the byte-subset pass of minimisation is
// quadratic in input length, so at the 60 s default every new input
// stalls a worker for up to a minute and the exec count stands still.
func TestMain(m *testing.M) {
	flag.Parse()
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "test.fuzzminimizetime" })
	if !set {
		if err := flag.Set("test.fuzzminimizetime", "1s"); err != nil {
			panic(err)
		}
	}
	os.Exit(m.Run())
}

// FuzzLoadBundle feeds arbitrary gob payloads through the bundle loader,
// framed under a valid header and checksum so that mutations reach gob
// and Validate. A bundle the loader accepts must compile and score an
// all-zero row through Score and a 9-row batch through ScoreAll (at
// batchKernelMin rows and up the columnar side of its row-major/columnar
// choice) without panicking. Seeds: C4.5, RIPPER and NBC bundles of
// testBundle's shape, and the payloads of the two version 1 bundles in
// testdata (C4.5 with a naive-Bayes fallback, and NBC).
func FuzzLoadBundle(f *testing.F) {
	RegisterGobModels()
	for _, l := range []ml.Learner{c45.NewLearner(), ripper.NewLearner(), nbayes.NewLearner()} {
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(testBundleOf(f, l)); err != nil {
			f.Fatal(err)
		}
		f.Add(payload.Bytes())
	}
	for _, name := range []string{"legacy_c45_nbfallback.bin", "legacy_nbc.bin"} {
		legacy, err := os.Open(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		payload, err := ReadFrame(legacy, snapshotMagic, 1)
		legacy.Close()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		var framed bytes.Buffer
		if err := WriteFrame(&framed, snapshotMagic, snapshotVersion, payload); err != nil {
			t.Fatal(err)
		}
		b, err := readBundle(&framed)
		if err != nil {
			return
		}
		a := b.Analyzer
		a.Compile()
		x := make([]int, len(a.Attrs))
		a.Score(x, b.Scorer)
		rows := make([][]int, batchKernelMin+1)
		for i := range rows {
			rows[i] = x
		}
		a.ScoreAll(ml.DatasetOf(a.Attrs, rows), b.Scorer)
	})
}

// FuzzReadFrame feeds whole files to ReadFrame, the envelope every bundle,
// CFAC checkpoint and CFAF flight dump is read through. It must never
// panic; a rejection wraps ErrSnapshotFormat or ErrSnapshotCorrupt; and an
// accepted frame is canonical: WriteFrame with the same magic, version and
// payload reproduces the input byte for byte. Seeds: a snapshot of
// testBundle, the header-only 1 GiB frame of TestReadFrameBoundsAllocation,
// and truncations of both.
func FuzzReadFrame(f *testing.F) {
	var bundle bytes.Buffer
	if err := WriteSnapshot(&bundle, testBundle(f)); err != nil {
		f.Fatal(err)
	}
	var huge [FrameHeaderLen]byte
	copy(huge[:4], snapshotMagic)
	binary.BigEndian.PutUint16(huge[4:6], snapshotVersion)
	binary.BigEndian.PutUint64(huge[10:18], 1<<30)
	for _, file := range [][]byte{bundle.Bytes(), huge[:]} {
		// Every cut inside the header, then a few inside the payload.
		for cut := 0; cut < min(len(file), FrameHeaderLen+2); cut++ {
			f.Add(file[:cut])
		}
		f.Add(file[:len(file)/2])
		f.Add(file[:len(file)-1])
		f.Add(file)
	}

	f.Fuzz(func(t *testing.T, file []byte) {
		payload, err := ReadFrame(bytes.NewReader(file), snapshotMagic, snapshotVersion)
		if err != nil {
			if !errors.Is(err, ErrSnapshotFormat) && !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("rejection %v wraps neither ErrSnapshotFormat nor ErrSnapshotCorrupt", err)
			}
			return
		}
		var again bytes.Buffer
		if err := WriteFrame(&again, snapshotMagic, snapshotVersion, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), file) {
			t.Fatalf("accepted frame is not canonical: %d input bytes re-frame to %d", len(file), again.Len())
		}
	})
}
