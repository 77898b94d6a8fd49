package serve

// Tests of the float conversion in atof.go and wireDecoder.number against
// strconv.ParseFloat, the conversion encoding/json uses: every number
// must decode bit-equal to it, and be rejected exactly when it reports
// the number out of range.

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestPow10TableEntries spot-checks the lazily built table against the
// 128-bit truncated powers of ten published with the algorithm, at both
// ends of its range and where it turns from exact to truncated.
func TestPow10TableEntries(t *testing.T) {
	for _, c := range []struct {
		exp    int
		hi, lo uint64
	}{
		{-348, 0xFA8FD5A0081C0288, 0x1732C869CD60E453},
		{-2, 0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A3},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x8000000000000000, 0},
		{27, 0xCECB8F27F4200F3A, 0},
		{28, 0x813F3978F8940984, 0x4000000000000000},
		{347, 0xD13EB46469447567, 0x4B7195F2D2D1A9FB},
	} {
		got := pow10Bits()[c.exp-minPow10Exp]
		if got != [2]uint64{c.hi, c.lo} {
			t.Errorf("10^%d: table holds %#x, want %#x", c.exp, got, [2]uint64{c.hi, c.lo})
		}
	}
}

// atofEdgeCases are the hand-picked numbers of the sweep and the decoder
// fuzz seeds: the halfway case that defeats the Eisel–Lemire step, the
// subnormal and overflow edges it leaves to ParseFloat, 19- and 20-digit
// mantissas either side of its exactness limit, and negative zero.
var atofEdgeCases = []string{
	"9007199254740993",
	"2.2250738585072011e-308", "4.9406564584124654e-324",
	"1.7976931348623157e308", "1.7976931348623159e308",
	"1234567890123456789", "12345678901234567890", "9999999999999999999",
	"-0.0",
}

// numberMismatch decodes s with wireDecoder.number, which must consume it
// whole, and describes how the result differs from ParseFloat's: the
// float bits, or whether the number is rejected as out of range. It
// returns "" when they agree.
func numberMismatch(s string) string {
	want, wantErr := strconv.ParseFloat(s, 64)
	d := wireDecoder{data: []byte(s)}
	got, gotErr := d.number()
	switch {
	case gotErr == nil && d.off != len(s):
		return fmt.Sprintf("%q: number consumed %d of %d bytes", s, d.off, len(s))
	case (wantErr == nil) != (gotErr == nil):
		return fmt.Sprintf("%q: ParseFloat error %v, number error %v", s, wantErr, gotErr)
	case wantErr == nil && math.Float64bits(got) != math.Float64bits(want):
		return fmt.Sprintf("%q: number = %v (%#x), ParseFloat = %v (%#x)",
			s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return ""
}

// TestNumberMatchesParseFloat sweeps random float64 bit patterns, each
// written shortest, with 17 significant digits and with 19, through
// number, plus the hand-picked edge cases. It also requires the
// Eisel–Lemire step to take nearly every 17-digit number, so a step that
// declined everything could not pass on the fallback alone.
func TestNumberMatchesParseFloat(t *testing.T) {
	check := func(s string) {
		if msg := numberMismatch(s); msg != "" {
			t.Fatal(msg)
		}
	}
	for _, s := range atofEdgeCases {
		check(s)
		check("-" + strings.TrimPrefix(s, "-"))
	}
	// An exponent past ParseFloat's 5 digits, brought back into range by
	// as many leading fraction zeros: only ParseFloat knows its value.
	check("0." + strings.Repeat("0", 100000) + "1e100005")
	check("0." + strings.Repeat("0", 20000) + "1e20005")

	n := 1000000
	if testing.Short() || raceEnabled {
		n = 50000
	}
	rng := rand.New(rand.NewSource(1))
	declined := 0
	for i := 0; i < n; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		for _, prec := range []int{-1, 17, 19} {
			check(strconv.FormatFloat(f, 'g', prec, 64))
		}
		d := wireDecoder{data: strconv.AppendFloat(nil, f, 'e', 16, 64)}
		mant, exp, exact, err := d.scanNumber()
		if err != nil || !exact {
			t.Fatalf("%q: scanned as mantissa %d exp %d exact %v err %v", d.data, mant, exp, exact, err)
		}
		if _, ok := eiselLemire(mant, exp, f < 0); !ok {
			declined++
		}
	}
	// The step declines subnormals (1 in 2048 random bit patterns) and
	// the few products a truncated power leaves it unable to round, such
	// as 17 digits ending in 0 with a negative exponent; a step declining
	// far more would be passing this sweep on ParseFloat alone.
	if declined > n/100 {
		t.Errorf("Eisel–Lemire declined %d of %d 17-digit numbers", declined, n)
	}
}
