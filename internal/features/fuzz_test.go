package features

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
)

// FuzzReadCSV ensures arbitrary input never panics the trace parser —
// it must either parse or return an error.
func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	good := []Vector{{Time: 5, Values: make([]float64, NumFeatures)}}
	if err := WriteCSV(&buf, good); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("time,velocity\n1,2\n")
	f.Add("")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, s string) {
		_, _ = ReadCSV(strings.NewReader(s))
	})
}

// bucketOracle is the binary search TransformValue was before it counted
// cuts: the guard buckets as TransformValue assigns them, then the first
// in-range bucket whose upper boundary is >= v.
func bucketOracle(d *Discretizer, j int, v float64) int {
	cuts := d.Cuts[j]
	switch {
	case math.IsNaN(v):
		return len(cuts) + 3
	case v < d.Min[j]:
		return len(cuts) + 1
	case v > d.Max[j]:
		return len(cuts) + 2
	}
	lo, hi := 0, len(cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= cuts[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// cutsFrom decodes raw as up to 8 float64 bit patterns and keeps the
// finite ones, sorted with duplicates dropped: strictly ascending cuts of
// length 0–8.
func cutsFrom(raw []byte) []float64 {
	var cuts []float64
	for i := 0; i+8 <= len(raw) && len(cuts) < 8; i += 8 {
		if c := math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])); isFinite(c) {
			cuts = append(cuts, c)
		}
	}
	sort.Float64s(cuts)
	return slices.Compact(cuts)
}

// rawCuts encodes cuts as cutsFrom reads them.
func rawCuts(cuts ...float64) []byte {
	raw := make([]byte, 0, 8*len(cuts))
	for _, c := range cuts {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(c))
	}
	return raw
}

// FuzzTransformValue holds the counting TransformValue to its
// binary-search oracle on every discretiser Validate accepts: fuzzed cuts,
// range and value, plus each cut itself, its neighbours and the
// non-finite and signed-zero values.
func FuzzTransformValue(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(rawCuts(3, 5, 7, 9), 1.0, 10.0, 5.5)
	f.Add(rawCuts(3, 5, 7, 9), 1.0, 10.0, 5.0)
	f.Add(rawCuts(3, 5, 7, 9), 1.0, 10.0, nan)
	f.Add(rawCuts(3, 5, 7, 9), 1.0, 10.0, inf)
	f.Add(rawCuts(3, 5, 7, 9), 1.0, 10.0, -inf)
	f.Add(rawCuts(0), -1.0, 1.0, math.Copysign(0, -1))
	f.Add(rawCuts(-0.5, 0, 0.5), -1.0, 1.0, 0.0)
	f.Add(rawCuts(), 7.0, 7.0, 7.0)
	f.Add(rawCuts(1, 2, 3, 4, 5, 6, 7, 8), 0.0, 9.0, 8.0)
	f.Add(rawCuts(-1e300, 1e300), -math.MaxFloat64, math.MaxFloat64, 1e300)
	f.Add(rawCuts(1, 2), 3.0, 0.0, 1.0) // Min > Max: Validate refuses
	f.Add(rawCuts(1, 2), nan, 3.0, 1.0)
	f.Fuzz(func(t *testing.T, raw []byte, lo, hi, v float64) {
		d := &Discretizer{Cuts: [][]float64{cutsFrom(raw)}, Min: []float64{lo}, Max: []float64{hi}}
		if d.Validate() != nil {
			return
		}
		vs := []float64{v, math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), lo, hi}
		for _, c := range d.Cuts[0] {
			vs = append(vs, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
		}
		for _, x := range vs {
			got, want := d.TransformValue(0, x), bucketOracle(d, 0, x)
			if got != want {
				t.Fatalf("cuts %v range [%v, %v]: TransformValue(%v) = %d, oracle %d",
					d.Cuts[0], lo, hi, x, got, want)
			}
			if got < 0 || got >= d.Cardinality(0) {
				t.Fatalf("value %v mapped to bucket %d of %d", x, got, d.Cardinality(0))
			}
		}
	})
}

// TestDiscretizerValidate pins the shapes Validate refuses — the ones
// TransformValue would index past or bucket differently from its oracle —
// and that whatever Fit produces passes.
func TestDiscretizerValidate(t *testing.T) {
	rows := [][]float64{{1, math.NaN()}, {2, 5}, {3, 5}, {4, math.Inf(1)}, {5, 6}}
	fit, err := Fit(rows, []string{"x", "y"}, FitOptions{Buckets: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := fit.Validate(); err != nil {
		t.Fatalf("fitted discretizer rejected: %v", err)
	}
	good := func() *Discretizer {
		return &Discretizer{Cuts: [][]float64{{1, 2, 3}, {}}, Min: []float64{0, -1}, Max: []float64{4, 1}}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("well-formed discretizer rejected: %v", err)
	}
	for name, damage := range map[string]func(d *Discretizer){
		"short min":         func(d *Discretizer) { d.Min = d.Min[:1] },
		"long max":          func(d *Discretizer) { d.Max = append(d.Max, 9) },
		"NaN cut":           func(d *Discretizer) { d.Cuts[0][1] = math.NaN() },
		"infinite cut":      func(d *Discretizer) { d.Cuts[0][2] = math.Inf(1) },
		"descending cuts":   func(d *Discretizer) { d.Cuts[0][0], d.Cuts[0][1] = 2, 1 },
		"duplicate cut":     func(d *Discretizer) { d.Cuts[0][1] = 1 },
		"min above max":     func(d *Discretizer) { d.Min[1], d.Max[1] = 2, 1 },
		"NaN min":           func(d *Discretizer) { d.Min[0] = math.NaN() },
		"infinite max":      func(d *Discretizer) { d.Max[1] = math.Inf(1) },
		"negative inf min":  func(d *Discretizer) { d.Min[1] = math.Inf(-1) },
		"NaN max":           func(d *Discretizer) { d.Max[0] = math.NaN() },
		"cut list too long": func(d *Discretizer) { d.Cuts = append(d.Cuts, nil) },
	} {
		d := good()
		damage(d)
		if d.Validate() == nil {
			t.Errorf("%s: Validate accepted %+v", name, d)
		}
	}
}

// TestTransformHostileValues pins the bucket each degraded reading lands
// in: NaN in the unknown bucket, ±Inf and out-of-range values in the
// below-/above-range guards — explicit classes, never a panic or a fold
// into a normal bucket.
func TestTransformHostileValues(t *testing.T) {
	rows := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}}
	d, err := Fit(rows, []string{"x"}, FitOptions{Buckets: 5})
	if err != nil {
		t.Fatal(err)
	}
	cuts := len(d.Cuts[0])
	below, above, unknown := cuts+1, cuts+2, cuts+3
	cases := []struct {
		v    float64
		want int
	}{
		{math.NaN(), unknown},
		{math.Inf(-1), below},
		{math.Inf(1), above},
		{0.5, below},
		{-1e300, below},
		{10.5, above},
		{1e300, above},
		{1, 0},
		{10, cuts},
	}
	for _, c := range cases {
		if got := d.TransformValue(0, c.v); got != c.want {
			t.Errorf("TransformValue(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if u := d.UnknownBucket(0); u != unknown || u != d.Cardinality(0)-1 {
		t.Errorf("UnknownBucket = %d, want %d (Cardinality-1)", u, unknown)
	}
	// A full hostile row transforms without error and every bucket is in
	// range.
	x, err := d.Transform([]float64{math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != unknown {
		t.Errorf("row transform mapped NaN to %d, want %d", x[0], unknown)
	}
}

// TestTransformDeterministic feeds the same hostile values twice and
// demands identical buckets: degraded audit data must not introduce
// nondeterminism.
func TestTransformDeterministic(t *testing.T) {
	rows := [][]float64{{1, -5}, {2, 0}, {3, 5}, {4, 10}, {5, 15}, {6, 20}}
	d, err := Fit(rows, []string{"x", "y"}, FitOptions{Buckets: 5})
	if err != nil {
		t.Fatal(err)
	}
	hostile := [][]float64{
		{math.NaN(), math.Inf(1)},
		{math.Inf(-1), math.NaN()},
		{1e308, -1e308},
		{3.5, 7.5},
	}
	for _, row := range hostile {
		a, err := d.Transform(row)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Transform(row)
		if err != nil {
			t.Fatal(err)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Errorf("row %v feature %d: buckets %d then %d", row, j, a[j], b[j])
			}
			if a[j] < 0 || a[j] >= d.Cardinality(j) {
				t.Errorf("row %v feature %d: bucket %d outside [0,%d)", row, j, a[j], d.Cardinality(j))
			}
		}
	}
}

// TestFitDegenerateInputs covers pathological training sets: no rows is an
// error; all-non-finite and constant columns fit fine and stay total at
// transform time.
func TestFitDegenerateInputs(t *testing.T) {
	if _, err := Fit(nil, nil, FitOptions{}); err == nil {
		t.Error("Fit on zero rows must error")
	}
	if _, err := Fit([][]float64{{1, 2}, {3}}, []string{"a", "b"}, FitOptions{}); err == nil {
		t.Error("Fit on ragged rows must error")
	}
	if _, err := Fit([][]float64{{1}}, []string{"a", "b"}, FitOptions{}); err == nil {
		t.Error("Fit with mismatched names must error")
	}

	// A column with no finite observation: the range is pinned and every
	// finite value is out-of-range, NaN still maps to unknown.
	d, err := Fit([][]float64{{math.NaN()}, {math.Inf(1)}}, []string{"x"}, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.TransformValue(0, math.NaN()); got != d.UnknownBucket(0) {
		t.Errorf("NaN -> %d, want unknown %d", got, d.UnknownBucket(0))
	}
	if got := d.TransformValue(0, 0); got < 0 || got >= d.Cardinality(0) {
		t.Errorf("finite value -> bucket %d outside schema", got)
	}

	// A constant column yields no cuts but stays total.
	d, err = Fit([][]float64{{7}, {7}, {7}}, []string{"x"}, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Cuts[0]) != 0 {
		t.Errorf("constant column produced %d cuts", len(d.Cuts[0]))
	}
	if got := d.TransformValue(0, 7); got != 0 {
		t.Errorf("the constant value -> bucket %d, want 0", got)
	}
	if got := d.TransformValue(0, 8); got != d.Cardinality(0)-2 {
		t.Errorf("above-range value -> bucket %d, want above-guard %d", got, d.Cardinality(0)-2)
	}
}
