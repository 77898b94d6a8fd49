package main

import "testing"

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	faster := []float64{9, 9.1, 8.9, 9, 9.2, 8.8, 9, 9.1, 9, 8.9}
	for _, c := range []struct {
		name         string
		base         []float64
		change       []float64
		lowerBetter  bool
		bound        float64
		moreFailures bool
		want         string
		wins         int
	}{
		{"clear gain", base, faster, true, 0.1, false, "gain", 10},
		{"gain in the higher direction", base, []float64{11, 11.1, 10.9, 11, 11.2, 10.8, 11, 11.1, 11, 10.9}, false, 0.1, false, "gain", 10},
		{"clear gain with more failed operations", base, faster, true, 0.1, true, "worse", 10},
		{"8 of 10 wins is no gain", base, []float64{9, 9.1, 8.9, 9, 9.2, 8.8, 9, 9.1, 10.2, 10}, true, 0.1, false, "no change", 8},
		{"within the base's spread", base, []float64{9.95, 10.1, 9.85, 10.05, 9.95, 9.75, 10.25, 9.95, 10.05, 9.85}, true, 0.1, false, "no change", 10},
		{"worse beyond the bound", base, []float64{12, 12, 12, 12, 12, 12, 12, 12, 12, 12}, true, 0.1, false, "worse", 0},
		{"worse within the bound", base, []float64{10.5, 10.6, 10.4, 10.5, 10.5, 10.4, 10.6, 10.5, 10.5, 10.4}, true, 0.1, false, "no change", 0},
		{"base spread wider than the bound", []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}, []float64{6, 14, 9, 11, 10, 7, 13, 9, 11, 10}, true, 0.1, false, "unresolved", 3},
		{"wide spread but every change run better", []float64{10, 10, 10, 30, 10, 10, 30, 10, 10, 10}, []float64{9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9, 9.9}, true, 0.1, false, "no change", 10},
	} {
		got, wins := verdict(c.base, c.change, c.lowerBetter, c.bound, c.moreFailures)
		if got != c.want || wins != c.wins {
			t.Errorf("%s: verdict %q with %d wins, want %q with %d", c.name, got, wins, c.want, c.wins)
		}
	}
}
