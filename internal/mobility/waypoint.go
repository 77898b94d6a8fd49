// Package mobility implements node movement models. The paper's experiments
// use the ns-2 random way-point model on a 1000 m x 1000 m field with a
// 10 s pause time and a 20 m/s maximum speed; those are the defaults here.
package mobility

import (
	"fmt"
	"math"
	"math/rand"

	"crossfeature/internal/geom"
)

// Config describes a random-waypoint field.
type Config struct {
	Width, Height float64 // field dimensions in metres
	MinSpeed      float64 // lower bound of the uniform speed draw, m/s (>0 avoids the stall pathology)
	MaxSpeed      float64 // upper bound of the uniform speed draw, m/s
	Pause         float64 // pause at each waypoint, seconds
}

// DefaultConfig matches the paper's experiment setup (section 4.1).
func DefaultConfig() Config {
	return Config{Width: 1000, Height: 1000, MinSpeed: 1, MaxSpeed: 20, Pause: 10}
}

// Validate reports whether the configuration is self-consistent.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"width", c.Width},
		{"height", c.Height},
		{"min speed", c.MinSpeed},
		{"max speed", c.MaxSpeed},
		{"pause", c.Pause},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("mobility: %s %g must be finite", f.name, f.v)
		}
	}
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("mobility: field %gx%g must be positive", c.Width, c.Height)
	case c.MinSpeed <= 0:
		return fmt.Errorf("mobility: min speed %g must be positive", c.MinSpeed)
	case c.MaxSpeed < c.MinSpeed:
		return fmt.Errorf("mobility: max speed %g below min speed %g", c.MaxSpeed, c.MinSpeed)
	case c.Pause < 0:
		return fmt.Errorf("mobility: pause %g must be non-negative", c.Pause)
	}
	return nil
}

// phase of a waypoint leg.
type phase int

const (
	phaseMoving phase = iota + 1
	phasePaused
)

// Waypoint tracks one node's random-waypoint trajectory. Positions are
// evaluated lazily: Update advances internal state to the queried time, so
// a node costs O(1) per leg rather than per simulation event.
type Waypoint struct {
	cfg   Config
	rng   *rand.Rand
	now   float64
	pos   geom.Vec
	dest  geom.Vec
	speed float64 // current leg speed; 0 while paused
	phase phase
	until float64 // virtual time this leg or pause ends
}

// NewWaypoint places a node uniformly at random and starts it paused so
// that initial positions are stationary samples of the field.
func NewWaypoint(cfg Config, rng *rand.Rand) *Waypoint {
	w := &Waypoint{cfg: cfg, rng: rng}
	w.pos = geom.Vec{X: rng.Float64() * cfg.Width, Y: rng.Float64() * cfg.Height}
	w.phase = phasePaused
	w.until = cfg.Pause * rng.Float64() // stagger first departures
	return w
}

// pickLeg draws the next destination and speed.
func (w *Waypoint) pickLeg() {
	w.dest = geom.Vec{X: w.rng.Float64() * w.cfg.Width, Y: w.rng.Float64() * w.cfg.Height}
	w.speed = w.cfg.MinSpeed + w.rng.Float64()*(w.cfg.MaxSpeed-w.cfg.MinSpeed)
	dist := w.pos.Dist(w.dest)
	w.phase = phaseMoving
	w.until = w.now + dist/w.speed
}

// Update advances the trajectory to virtual time t and returns the
// position there. Time never moves backwards; stale queries are answered
// from current state.
func (w *Waypoint) Update(t float64) geom.Vec {
	if t <= w.now {
		return w.pos
	}
	for {
		if t < w.until {
			// Mid-leg or mid-pause: interpolate if moving.
			if w.phase == phaseMoving {
				elapsed := t - w.now
				w.pos = w.pos.Add(w.dest.Sub(w.pos).Unit().Scale(w.speed * elapsed))
				w.pos = w.pos.Clamp(w.cfg.Width, w.cfg.Height)
			}
			w.now = t
			return w.pos
		}
		// Complete the current leg or pause and roll into the next.
		if w.phase == phaseMoving {
			w.pos = w.dest
			w.now = w.until
			w.speed = 0
			w.phase = phasePaused
			w.until = w.now + w.cfg.Pause
		} else {
			w.now = w.until
			w.pickLeg()
		}
	}
}

// Position returns the node position at the last Update time.
func (w *Waypoint) Position() geom.Vec { return w.pos }

// Speed returns the node's current scalar speed in m/s (the paper's
// "absolute velocity" feature); zero while paused.
func (w *Waypoint) Speed() float64 {
	if w.phase == phasePaused {
		return 0
	}
	return w.speed
}

// Static is a trivial mobility source for tests and the two-node example:
// a node pinned at a fixed position.
type Static struct {
	Pos geom.Vec
}

// Update returns the pinned position.
func (s *Static) Update(float64) geom.Vec { return s.Pos }

// Position returns the pinned position.
func (s *Static) Position() geom.Vec { return s.Pos }

// Speed always returns zero.
func (s *Static) Speed() float64 { return 0 }

// Model is the interface the radio medium and feature extractor use to
// query node kinematics.
type Model interface {
	// Update advances the model to virtual time t and returns the
	// position there, so a refresh is one call.
	Update(t float64) geom.Vec
	// Position returns the position at the last Update.
	Position() geom.Vec
	Speed() float64
}

var (
	_ Model = (*Waypoint)(nil)
	_ Model = (*Static)(nil)
)
