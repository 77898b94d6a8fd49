package ml

import (
	"math"
	"testing"
)

// TestLog2TablesExact pins every table entry to the formula it stands for,
// bit for bit, on the platform the test runs on: for 1 ≤ c ≤ n ≤ 256 and,
// through the formula path, for the first denominator past the bound.
// Entropy's terms must equal PLog's, so it is held to a sum of PLog.
func TestLog2TablesExact(t *testing.T) {
	lt := Log2()
	for n := 1; n <= log2Max+1; n++ {
		for c := 1; c <= n; c++ {
			p := float64(c) / float64(n)
			if got, want := lt.Ratio(c, n), math.Log2(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Ratio(%d, %d) = %v (%#x), want %v (%#x)", c, n, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got, want := lt.PLog(c, n), float64(p*math.Log2(p)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("PLog(%d, %d) = %v (%#x), want %v (%#x)", c, n, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	for _, counts := range [][]int{{3, 0, 5}, {1, 1, 1, 1, 1, 1, 1}, {200, 56}, {300, 1, 0, 2}} {
		total := 0
		for _, c := range counts {
			total += c
		}
		var h float64
		for _, c := range counts {
			if c > 0 {
				h -= lt.PLog(c, total)
			}
		}
		if got := Entropy(counts); math.Float64bits(got) != math.Float64bits(h) {
			t.Errorf("Entropy(%v) = %v, the table terms sum to %v", counts, got, h)
		}
	}
}
