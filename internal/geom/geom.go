// Package geom provides the 2-D vector math used by the mobility and radio
// models.
package geom

import "math"

// Vec is a point or displacement in the simulation plane, in metres.
type Vec struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Len returns the Euclidean norm of v. It is math.Hypot's algorithm
// written inline, bit for bit equal to math.Hypot on every non-NaN input
// without the call. The explicit float64 conversion keeps q*q rounded on
// its own, so no target fuses it into the following add.
func (v Vec) Len() float64 {
	p, q := math.Abs(v.X), math.Abs(v.Y)
	if p < q {
		p, q = q, p
	}
	if p == 0 || p > math.MaxFloat64 {
		return p // both components zero, or one infinite
	}
	q /= p
	return p * math.Sqrt(1+float64(q*q))
}

// Dist returns the Euclidean distance between v and w.
func (v Vec) Dist(w Vec) float64 { return v.Sub(w).Len() }

// Unit returns the unit vector in v's direction, or the zero vector if v is
// (numerically) zero.
func (v Vec) Unit() Vec {
	l := v.Len()
	if l < 1e-12 {
		return Vec{}
	}
	return v.Scale(1 / l)
}

// Lerp linearly interpolates from v to w by fraction f in [0,1].
func (v Vec) Lerp(w Vec, f float64) Vec {
	return Vec{v.X + (w.X-v.X)*f, v.Y + (w.Y-v.Y)*f}
}

// Clamp restricts v to the axis-aligned rectangle [0,w] x [0,h]. Each
// coordinate is bit for bit math.Min(math.Max(x, 0), hi) on every non-NaN
// input, signed zeros included, without the calls.
func (v Vec) Clamp(w, h float64) Vec {
	return Vec{clamp(v.X, w), clamp(v.Y, h)}
}

func clamp(x, hi float64) float64 {
	if x <= 0 {
		x = 0 // math.Max(x, 0) is +0 for x = -0 too
	}
	if hi <= x {
		return hi // math.Min(+0, -0) is -0, which hi <= x also picks
	}
	return x
}
