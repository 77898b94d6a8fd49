package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: input order must not matter
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 50, 50}, {99, 99, 1}, {100, 100, 0}, {0.5, 1, 99}, {99.5, 100, 0},
	} {
		v, b := nearestRank(xs, c.p)
		if v != c.want || b != c.beyond {
			t.Errorf("p%g = %g (%d beyond), want %g (%d beyond)", c.p, v, b, c.want, c.beyond)
		}
	}
	if xs[0] != 100 {
		t.Error("nearestRank reordered its input")
	}
	if v, b := nearestRank(nil, 50); !math.IsNaN(v) || b != 0 {
		t.Errorf("empty sample = %g, %d; want NaN, 0", v, b)
	}
}

// TestP99SamplesBeyond pins the reporting rule behind p99_ms: a p99 has
// at least ten samples beyond it only from 1000 samples up.
func TestP99SamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, beyond int }{{999, 9}, {1000, 10}, {1875, 18}, {100, 1}, {7, 0}} {
		if _, b := nearestRank(make([]float64, c.n), 99); b != c.beyond {
			t.Errorf("p99 of %d samples has %d beyond, want %d", c.n, b, c.beyond)
		}
	}
}

// TestQuartilesMatchPython checks quartiles against Python's
// statistics.quantiles(xs, n=4), the definition the bounds use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
