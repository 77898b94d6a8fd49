package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestBasicOps(t *testing.T) {
	v := Vec{3, 4}
	w := Vec{1, -2}
	if got := v.Add(w); got != (Vec{4, 2}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec{2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if !almost(v.Len(), 5) {
		t.Errorf("Len = %v, want 5", v.Len())
	}
	if !almost(v.Dist(Vec{0, 0}), 5) {
		t.Errorf("Dist = %v, want 5", v.Dist(Vec{}))
	}
}

func TestUnit(t *testing.T) {
	u := Vec{3, 4}.Unit()
	if !almost(u.Len(), 1) {
		t.Errorf("unit length = %v", u.Len())
	}
	if z := (Vec{}).Unit(); z != (Vec{}) {
		t.Errorf("zero unit = %v, want zero", z)
	}
}

func TestLerp(t *testing.T) {
	a, b := Vec{0, 0}, Vec{10, 20}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp 0 = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp 1 = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != (Vec{5, 10}) {
		t.Errorf("Lerp 0.5 = %v", got)
	}
}

func TestClamp(t *testing.T) {
	if got := (Vec{-5, 1500}).Clamp(1000, 1000); got != (Vec{0, 1000}) {
		t.Errorf("Clamp = %v", got)
	}
	if got := (Vec{500, 500}).Clamp(1000, 1000); got != (Vec{500, 500}) {
		t.Errorf("in-bounds Clamp moved the point: %v", got)
	}
}

// Property: the triangle inequality holds for Dist.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		if anyNaNInf(ax, ay, bx, by, cx, cy) {
			return true
		}
		a, b, c := Vec{ax, ay}, Vec{bx, by}, Vec{cx, cy}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Clamp output is always inside the rectangle.
func TestQuickClampBounds(t *testing.T) {
	f := func(x, y float64) bool {
		if anyNaNInf(x, y) {
			return true
		}
		v := Vec{x, y}.Clamp(1000, 800)
		return v.X >= 0 && v.X <= 1000 && v.Y >= 0 && v.Y <= 800
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: scaling scales the norm proportionally.
func TestQuickScaleNorm(t *testing.T) {
	f := func(x, y, s float64) bool {
		if anyNaNInf(x, y, s) || math.Abs(s) > 1e100 || math.Abs(x) > 1e100 || math.Abs(y) > 1e100 {
			return true
		}
		v := Vec{x, y}
		got := v.Scale(s).Len()
		want := math.Abs(s) * v.Len()
		if want == 0 {
			return got == 0
		}
		return math.Abs(got-want)/want < 1e-9 || math.IsInf(want, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func anyNaNInf(vals ...float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// bitInputs returns the edge values the bit-equality tests cross with each
// other: signed zeros, subnormals, the extremes of the normal range and
// infinities, plus a few ordinary magnitudes.
func bitInputs() []float64 {
	vals := []float64{
		0, 1, 0.5, 3, 4, 1e-12, 250, 1000, 1e150, 1e300,
		math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		0x1p-1022,                                // smallest normal
		math.MaxFloat64, math.Inf(1),
	}
	out := make([]float64, 0, 2*len(vals))
	for _, v := range vals {
		out = append(out, v, -v)
	}
	return out
}

// randomBits draws a float64 from random bit patterns (every exponent,
// subnormals included), skipping NaN, so magnitudes span the whole range.
func randomBits(rng *rand.Rand) float64 {
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) {
			return f
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLenMatchesHypotBits pins Len and Dist bit-equal to math.Hypot on
// edge values and on random inputs of every magnitude.
func TestLenMatchesHypotBits(t *testing.T) {
	check := func(x, y float64) {
		t.Helper()
		if got, want := (Vec{x, y}).Len(), math.Hypot(x, y); !sameBits(got, want) {
			t.Fatalf("Vec{%v, %v}.Len() = %v (%#x), math.Hypot = %v (%#x)",
				x, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	edges := bitInputs()
	for _, x := range edges {
		for _, y := range edges {
			check(x, y)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		check(randomBits(rng), randomBits(rng))
		// Field-scale coordinates, the simulator's actual regime.
		a := Vec{rng.Float64() * 1000, rng.Float64() * 1000}
		b := Vec{rng.Float64() * 1000, rng.Float64() * 1000}
		if got, want := a.Dist(b), math.Hypot(a.X-b.X, a.Y-b.Y); !sameBits(got, want) {
			t.Fatalf("%v.Dist(%v) = %v, math.Hypot = %v", a, b, got, want)
		}
	}
}

// TestClampMatchesMinMaxBits pins Clamp bit-equal to
// math.Min(math.Max(x, 0), hi) on edge values and random inputs.
func TestClampMatchesMinMaxBits(t *testing.T) {
	check := func(x, y, w, h float64) {
		t.Helper()
		got := Vec{x, y}.Clamp(w, h)
		wantX, wantY := math.Min(math.Max(x, 0), w), math.Min(math.Max(y, 0), h)
		if !sameBits(got.X, wantX) || !sameBits(got.Y, wantY) {
			t.Fatalf("Vec{%v, %v}.Clamp(%v, %v) = %v, want {%v %v}", x, y, w, h, got, wantX, wantY)
		}
	}
	edges := bitInputs()
	for _, x := range edges {
		for _, hi := range edges {
			check(x, -x, hi, -hi)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200000; i++ {
		check(randomBits(rng), randomBits(rng), randomBits(rng), randomBits(rng))
		x, y := rng.Float64()*1200-100, rng.Float64()*1200-100
		check(x, y, 1000, 1000)
	}
}
