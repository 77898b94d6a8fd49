package mobility

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"crossfeature/internal/geom"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero width", func(c *Config) { c.Width = 0 }},
		{"negative height", func(c *Config) { c.Height = -1 }},
		{"zero min speed", func(c *Config) { c.MinSpeed = 0 }},
		{"max below min", func(c *Config) { c.MaxSpeed = c.MinSpeed / 2 }},
		{"negative pause", func(c *Config) { c.Pause = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestPositionsStayInField(t *testing.T) {
	cfg := DefaultConfig()
	w := NewWaypoint(cfg, rand.New(rand.NewSource(3)))
	for ti := 0.0; ti < 5000; ti += 0.5 {
		w.Update(ti)
		p := w.Position()
		if p.X < 0 || p.X > cfg.Width || p.Y < 0 || p.Y > cfg.Height {
			t.Fatalf("position %v left the field at t=%v", p, ti)
		}
	}
}

func TestSpeedWithinBounds(t *testing.T) {
	cfg := DefaultConfig()
	w := NewWaypoint(cfg, rand.New(rand.NewSource(4)))
	sawMoving, sawPaused := false, false
	for ti := 0.0; ti < 5000; ti += 0.5 {
		w.Update(ti)
		s := w.Speed()
		switch {
		case s == 0:
			sawPaused = true
		case s >= cfg.MinSpeed && s <= cfg.MaxSpeed:
			sawMoving = true
		default:
			t.Fatalf("speed %v outside [0] U [%v,%v]", s, cfg.MinSpeed, cfg.MaxSpeed)
		}
	}
	if !sawMoving || !sawPaused {
		t.Errorf("trajectory never alternated: moving=%v paused=%v", sawMoving, sawPaused)
	}
}

func TestDeterministicTrajectory(t *testing.T) {
	cfg := DefaultConfig()
	a := NewWaypoint(cfg, rand.New(rand.NewSource(9)))
	b := NewWaypoint(cfg, rand.New(rand.NewSource(9)))
	for ti := 0.0; ti < 1000; ti += 7 {
		a.Update(ti)
		b.Update(ti)
		if a.Position() != b.Position() || a.Speed() != b.Speed() {
			t.Fatalf("same-seed trajectories diverged at t=%v", ti)
		}
	}
}

func TestUpdateGranularityInvariance(t *testing.T) {
	// Position at time T must not depend on how many intermediate Updates
	// were issued.
	cfg := DefaultConfig()
	coarse := NewWaypoint(cfg, rand.New(rand.NewSource(5)))
	fine := NewWaypoint(cfg, rand.New(rand.NewSource(5)))
	coarse.Update(500)
	for ti := 0.0; ti <= 500; ti += 0.25 {
		fine.Update(ti)
	}
	if d := coarse.Position().Dist(fine.Position()); d > 1e-6 {
		t.Errorf("update granularity changed position by %v m", d)
	}
}

func TestTimeNeverMovesBackwards(t *testing.T) {
	w := NewWaypoint(DefaultConfig(), rand.New(rand.NewSource(6)))
	w.Update(100)
	p := w.Position()
	w.Update(50) // stale query
	if w.Position() != p {
		t.Error("stale Update changed position")
	}
}

func TestMovementActuallyHappens(t *testing.T) {
	w := NewWaypoint(DefaultConfig(), rand.New(rand.NewSource(7)))
	start := w.Position()
	w.Update(1000)
	if w.Position().Dist(start) == 0 {
		t.Error("node never moved in 1000s")
	}
}

func TestStaticModel(t *testing.T) {
	s := &Static{Pos: geom.Vec{X: 10, Y: 20}}
	s.Update(100)
	if s.Position() != (geom.Vec{X: 10, Y: 20}) {
		t.Error("static node moved")
	}
	if s.Speed() != 0 {
		t.Error("static node has nonzero speed")
	}
}

// Property: for any seed and query schedule, positions stay in the field
// and speeds in bounds.
func TestQuickTrajectoryInvariants(t *testing.T) {
	cfg := Config{Width: 300, Height: 200, MinSpeed: 0.5, MaxSpeed: 10, Pause: 2}
	f := func(seed int64, steps []uint8) bool {
		w := NewWaypoint(cfg, rand.New(rand.NewSource(seed)))
		now := 0.0
		for _, s := range steps {
			now += float64(s) / 4
			w.Update(now)
			p := w.Position()
			if p.X < 0 || p.X > cfg.Width || p.Y < 0 || p.Y > cfg.Height {
				return false
			}
			sp := w.Speed()
			if sp != 0 && (sp < cfg.MinSpeed || sp > cfg.MaxSpeed) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestValidateRejectsNonFinite checks every float field against NaN and
// both infinities, which the range checks alone let through.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"width", func(c *Config, v float64) { c.Width = v }},
		{"height", func(c *Config, v float64) { c.Height = v }},
		{"min speed", func(c *Config, v float64) { c.MinSpeed = v }},
		{"max speed", func(c *Config, v float64) { c.MaxSpeed = v }},
		{"pause", func(c *Config, v float64) { c.Pause = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultConfig()
			f.set(&cfg, v)
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s = %v accepted", f.name, v)
			}
		}
	}
}
