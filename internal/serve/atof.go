package serve

// Exact decimal-to-float64 conversion for the wire decoder: the
// Eisel–Lemire step (D. Lemire, "Number Parsing at a Gigabyte per
// Second", Software: Practice and Experience 51(8), 2021). Given a
// decimal mantissa of at most 19 digits and a power of ten, it multiplies
// the mantissa by a 128-bit truncation of that power and keeps the top 54
// bits. Whenever the bits it drops cannot move the rounding it returns
// the correctly rounded float64 — the one strconv.ParseFloat returns —
// and otherwise it declines, leaving the number to ParseFloat: halfway
// ambiguity, results in the subnormal or overflow range, and powers of
// ten outside the table. The steps follow the formulation in Go's own
// strconv (eisel_lemire.go, BSD-style license); the table of powers is
// computed at run time rather than listed.

import (
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// The table covers 10^-348 … 10^347: every power a finite, normal
// float64 with a 19-digit mantissa can need, with room to spare.
const (
	minPow10Exp = -348
	maxPow10Exp = 347
)

// pow128Table's entry e-minPow10Exp holds 10^e as {hi, lo}: the 128
// leading bits of its binary expansion, truncated, with the top bit set.
type pow128Table [maxPow10Exp - minPow10Exp + 1][2]uint64

var (
	pow128Once sync.Once
	pow128     *pow128Table
)

// pow10Bits returns the power-of-ten table, building it on first use.
// It is built lazily rather than at package init because every program
// that links this package pays for an init, and most never decode a
// request.
func pow10Bits() *pow128Table {
	pow128Once.Do(func() { pow128 = buildPow10Table() })
	return pow128
}

// buildPow10Table computes each entry exactly with math/big: 10^e for
// e ≥ 0, or 2^k / 10^-e for e < 0 with k chosen so the quotient has 128
// bits, truncated to its leading 128 bits.
func buildPow10Table() *pow128Table {
	var t pow128Table
	ten := big.NewInt(10)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	p := big.NewInt(1) // 10^|e|
	var x, word big.Int
	set := func(e int, x *big.Int) {
		if n := x.BitLen(); n > 128 {
			x.Rsh(x, uint(n-128))
		} else {
			x.Lsh(x, uint(128-n))
		}
		t[e-minPow10Exp][0] = word.Rsh(x, 64).Uint64()
		t[e-minPow10Exp][1] = word.And(x, mask).Uint64()
	}
	for e := 0; e <= maxPow10Exp; e++ {
		set(e, x.Set(p))
		p.Mul(p, ten)
	}
	p.SetInt64(10)
	for e := -1; e >= minPow10Exp; e-- {
		x.Lsh(big.NewInt(1), uint(127+p.BitLen()))
		set(e, x.Quo(&x, p))
		p.Mul(p, ten)
	}
	return &t
}

// eiselLemire returns mant × 10^exp10, negated when neg, correctly
// rounded to a float64, or ok false when it cannot prove the rounding or
// the result is subnormal, infinite or out of the table's range. mant is
// exact: at most 19 decimal digits.
func eiselLemire(mant uint64, exp10 int, neg bool) (f float64, ok bool) {
	if mant == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < minPow10Exp || exp10 > maxPow10Exp {
		return 0, false
	}
	pow := &pow10Bits()[exp10-minPow10Exp]

	// Normalise the mantissa so its top bit is set; the binary exponent
	// of the product follows from exp10 × log2(10), with 217706/2^16
	// standing in for log2(10) — exact over the table's range.
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	// The high 64 bits of the power usually settle the top 55 bits of the
	// product. When the bits below them are all ones, a carry from the
	// low half could still ripple up, so bring in the low 64 bits too and
	// decline if even that leaves the carry open.
	hi, lo := bits.Mul64(mant, pow[0])
	if hi&0x1FF == 0x1FF && lo+mant < mant {
		yHi, yLo := bits.Mul64(mant, pow[1])
		mergedHi, mergedLo := hi, lo+yHi
		if mergedLo < lo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+mant < mant {
			return 0, false
		}
		hi, lo = mergedHi, mergedLo
	}

	// Keep 54 bits: the 53 of the result and one rounding bit.
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb

	// Exactly halfway between two float64s: the truncated table cannot
	// say which way ties-to-even goes.
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}

	// Round to 53 bits, renormalising if that carried out.
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	// exp2 is unsigned: 0 (or wrapped below it) is the subnormal range,
	// 0x7FF and up is Inf.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
