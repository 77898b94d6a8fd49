package ml

import (
	"math"
	"sync"
)

// log2Max bounds the count denominators the log2 tables cover. One C4.5
// core.Train on the paper-scale audit data (140 × 2,000) takes 96.5% of its
// log2 calls, and RIPPER 87.6%, at a denominator of at most 256. A 512
// bound, twice the rows for four times the memory, trained no faster
// beyond run-to-run noise.
const log2Max = 256

// Log2Tables serves the two logarithms the split and rule searches take of
// integer count ratios, log2(c/n) and the rounded entropy term
// (c/n)·log2(c/n), from tables for 1 ≤ c ≤ n ≤ 256 and from the formula
// beyond. Every value has the formula's exact bits, so a search that reads
// the tables picks the same splits and rules as one that calls math.Log2.
type Log2Tables struct {
	// ratio and plog hold the entry for (c, n) at n(n-1)/2 + c, rows
	// n = 1..log2Max back to back after an unused slot 0: 32,897 float64
	// each.
	ratio, plog []float64
}

var (
	log2Once sync.Once
	log2Tab  Log2Tables
)

// Log2 returns the shared tables, building them on first use (about
// 0.5 MB), so a process that never trains never builds them.
func Log2() *Log2Tables {
	log2Once.Do(func() {
		size := log2Max*(log2Max+1)/2 + 1
		log2Tab.ratio = make([]float64, size)
		log2Tab.plog = make([]float64, size)
		for n := 1; n <= log2Max; n++ {
			for c := 1; c <= n; c++ {
				i := n*(n-1)/2 + c
				log2Tab.ratio[i] = log2Ratio(c, n)
				log2Tab.plog[i] = plog2Ratio(c, n)
			}
		}
	})
	return &log2Tab
}

// Ratio returns math.Log2(float64(c)/float64(n)) for 1 ≤ c ≤ n.
func (t *Log2Tables) Ratio(c, n int) float64 {
	if n > log2Max {
		return log2Ratio(c, n)
	}
	return t.ratio[n*(n-1)/2+c]
}

// PLog returns float64(p*math.Log2(p)) for p = float64(c)/float64(n) and
// 1 ≤ c ≤ n: the term Entropy subtracts for a count c of n.
func (t *Log2Tables) PLog(c, n int) float64 {
	if n > log2Max {
		return plog2Ratio(c, n)
	}
	return t.plog[n*(n-1)/2+c]
}

// log2Ratio and plog2Ratio are the formulas the tables hold. Kept out of
// line, they leave Ratio and PLog cheap enough to inline into the search
// loops.
//
//go:noinline
func log2Ratio(c, n int) float64 { return math.Log2(float64(c) / float64(n)) }

// plog2Ratio rounds the product explicitly: the conversion keeps a
// compiler that fuses multiply-adds from folding it into a caller's
// subtraction, which would disagree with the rounded table entry.
//
//go:noinline
func plog2Ratio(c, n int) float64 {
	p := float64(c) / float64(n)
	return float64(p * math.Log2(p))
}
