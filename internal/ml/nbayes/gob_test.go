package nbayes

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"crossfeature/internal/ml"
)

// fittedModel fits a model of attribute 2 on a small random dataset.
func fittedModel(tb testing.TB) *Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(9))
	ds := ml.NewDataset([]ml.Attr{{Name: "x", Card: 3}, {Name: "n", Card: 2}, {Name: "y", Card: 4}})
	for i := 0; i < 80; i++ {
		x := rng.Intn(3)
		if err := ds.Add([]int{x, rng.Intn(2), (x + rng.Intn(2)) % 4}); err != nil {
			tb.Fatal(err)
		}
	}
	c, err := NewLearner().Fit(ds, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return c.(*Model)
}

// sameModel reports whether two models hold the same target and tables,
// values compared by bits. A nil table or row equals an empty one: the
// encoding keeps lengths only, and every reader treats both alike.
func sameModel(a, b *Model) bool {
	if a.Target != b.Target || !sameBits(a.LogPrior, b.LogPrior) || len(a.LogCond) != len(b.LogCond) {
		return false
	}
	for t := range a.LogCond {
		if len(a.LogCond[t]) != len(b.LogCond[t]) {
			return false
		}
		for c := range a.LogCond[t] {
			if !sameBits(a.LogCond[t][c], b.LogCond[t][c]) {
				return false
			}
		}
	}
	return true
}

func encodeModel(tb testing.TB, m *Model) []byte {
	tb.Helper()
	data, err := m.GobEncode()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestGobEncodingRoundTripsAnyShape pins that the binary encoding keeps
// every shape, including ones Fit never produces, so that CheckShape, not
// the decoder, rejects a misshaped model; and that the decoded rows are
// capacity-capped views, so appending to one cannot overwrite the next.
func TestGobEncodingRoundTripsAnyShape(t *testing.T) {
	models := map[string]*Model{
		"fitted": fittedModel(t),
		"empty":  {},
		"odd shapes": {
			Target:   -3,
			LogPrior: []float64{math.Inf(-1), math.NaN(), -0.0},
			LogCond:  [][][]float64{nil, {{1}, {}, {2, 3, 4}}, {}, {{math.MaxFloat64}}},
		},
	}
	for name, m := range models {
		var back Model
		if err := back.GobDecode(encodeModel(t, m)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameModel(m, &back) {
			t.Fatalf("%s: round trip gave %+v, want %+v", name, back, *m)
		}
		for _, tab := range back.LogCond {
			for _, row := range tab {
				if cap(row) != len(row) {
					t.Fatalf("%s: decoded row has capacity %d past its length %d", name, cap(row), len(row))
				}
			}
		}
	}
}

// TestGobDecodeRejectsCorrupt covers the inputs GobEncode cannot write:
// every truncation, trailing bytes, and lengths declared past the input.
// A header declaring a huge table over a few bytes is rejected before
// anything of that size is allocated.
func TestGobDecodeRejectsCorrupt(t *testing.T) {
	good := encodeModel(t, fittedModel(t))
	for cut := 0; cut < len(good); cut++ {
		var m Model
		if err := m.GobDecode(good[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", cut, len(good))
		}
	}
	header := func(fields ...uint64) []byte {
		b := binary.AppendVarint(nil, 1) // target
		for _, f := range fields {
			b = binary.AppendUvarint(b, f)
		}
		return b
	}
	manyRows := header(0, 1, 200)
	for range 200 {
		manyRows = binary.AppendUvarint(manyRows, 30)
	}
	cases := map[string][]byte{
		"trailing byte":           append(append([]byte(nil), good...), 0),
		"missing value":           good[:len(good)-8],
		"prior past input":        header(1<<40, 0),
		"tables past input":       header(0, 1<<40),
		"rows past input":         header(0, 1, 1<<40),
		"row past input":          append(header(0, 1, 1, 3), make([]byte, 16)...),
		"huge row over few bytes": append(header(0, 1, 1, 1<<60), make([]byte, 16)...),
		"rows sum past input":     append(manyRows, make([]byte, 240)...),
		"overlong varint":         append(header(0, 1), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		"target past int64":       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var m Model
		err := m.GobDecode(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: corrupt encoding decoded without error", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
			t.Errorf("%s: rejecting %d bytes allocated %d bytes", name, len(data), got)
		}
	}
}

// FuzzModelGobDecode feeds arbitrary bytes to Model.GobDecode, the
// decoder of every Naive Bayes model in a bundle. It must never panic,
// and an accepted input must round-trip: GobEncode of the decoded model
// decodes to the same model, values compared by bits. Seeds: a fitted
// model, an empty one, one of odd shapes, and truncations of the first.
func FuzzModelGobDecode(f *testing.F) {
	fitted := encodeModel(f, fittedModel(f))
	for _, m := range []*Model{{}, {Target: 2, LogPrior: []float64{-1}, LogCond: [][][]float64{{{0.5, math.NaN()}}, nil}}} {
		f.Add(encodeModel(f, m))
	}
	f.Add(fitted)
	for _, cut := range []int{1, 3, 8, len(fitted) / 2, len(fitted) - 1} {
		f.Add(fitted[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Model
		if err := m.GobDecode(data); err != nil {
			return
		}
		enc, err := m.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var back Model
		if err := back.GobDecode(enc); err != nil {
			t.Fatalf("re-encoded model rejected: %v", err)
		}
		if !sameModel(&m, &back) {
			t.Fatalf("model changed in a round trip: %+v, then %+v", m, back)
		}
	})
}
