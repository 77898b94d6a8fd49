// Package experiments reproduces the paper's evaluation: it builds the
// four scenarios (AODV/DSR x TCP/UDP), runs normal and intrusion traces,
// constructs and discretises features, trains cross-feature detectors with
// the three base learners, and regenerates each table and figure of the
// paper as textual rows/series.
package experiments

import (
	"fmt"

	"crossfeature/internal/netsim"
	"crossfeature/internal/packet"
)

// Scenario is one of the paper's four routing/transport combinations.
type Scenario struct {
	Routing   netsim.RoutingKind
	Transport netsim.TransportKind
}

// Name renders "AODV/TCP"-style scenario labels.
func (s Scenario) Name() string {
	return fmt.Sprintf("%s/%s", s.Routing, s.Transport)
}

// FourScenarios enumerates the paper's evaluation matrix.
func FourScenarios() []Scenario {
	return []Scenario{
		{Routing: netsim.AODV, Transport: netsim.TCP},
		{Routing: netsim.AODV, Transport: netsim.CBR},
		{Routing: netsim.DSR, Transport: netsim.TCP},
		{Routing: netsim.DSR, Transport: netsim.CBR},
	}
}

// Preset bundles every knob of an experiment campaign. The paper's values
// are in PaperPreset; QuickPreset shrinks the time axis for tests and
// benchmarks while preserving the structure (relative onset times scale
// with the duration).
type Preset struct {
	Nodes       int
	Connections int
	Duration    float64
	Sample      float64

	// Seeds: one training trace, several normal and attack test traces.
	TrainSeed   int64
	NormalSeeds []int64
	AttackSeeds []int64

	// Mixed-intrusion schedule: black hole starting at BlackHoleStart and
	// selective dropping at DropStart, periodic sessions of
	// SessionDuration with equal gaps until the end of the run.
	BlackHoleStart  float64
	DropStart       float64
	SessionDuration float64

	// Single-intrusion schedule (Figures 5/6): three sessions of
	// SingleSessionDuration starting at SingleStarts.
	SingleStarts          []float64
	SingleSessionDuration float64

	// AttackerNode is the compromised host; DropTarget the destination
	// whose packets the selective-dropping attack discards.
	AttackerNode packet.NodeID
	DropTarget   packet.NodeID

	// WorkloadSeed fixes the connection pattern across all traces of a
	// scenario (ns-2 style reused traffic scenario files).
	WorkloadSeed int64

	// Warmup excludes records whose long-window statistics are still
	// ramping in (the 900 s window fills only after 900 s) from training
	// and recall/precision evaluation. Time-series figures keep full runs.
	Warmup float64

	// Feature handling.
	Buckets        int
	PrefilterSize  int // discretiser fitting sample ("small random subset")
	FalseAlarmRate float64

	// Parallelism bounds the workers of Train's sub-model fits and of the
	// normal-level pass that follows them (0 = GOMAXPROCS).
	Parallelism int

	// Workers bounds concurrent trace simulations in the Lab's worker
	// pool (0 = GOMAXPROCS). Results are deterministic for any value.
	Workers int
}

// PaperPreset is the paper's full-scale setup: 10 000 s runs sampled every
// 5 s, mixed intrusions starting at 2500 s (black hole) and 5000 s
// (dropping), single-intrusion traces with three 100 s sessions at
// 2500/5000/7500 s.
func PaperPreset() Preset {
	return Preset{
		Nodes:                 50,
		Connections:           100,
		Duration:              10000,
		Sample:                5,
		TrainSeed:             101,
		NormalSeeds:           []int64{201, 202, 203},
		AttackSeeds:           []int64{301, 302, 303},
		BlackHoleStart:        2500,
		DropStart:             5000,
		SessionDuration:       250,
		SingleStarts:          []float64{2500, 5000, 7500},
		SingleSessionDuration: 100,
		AttackerNode:          5,
		DropTarget:            0,
		WorkloadSeed:          42,
		Warmup:                900,
		Buckets:               5,
		PrefilterSize:         400,
		FalseAlarmRate:        0.02,
	}
}

// QuickPreset shrinks the paper preset by roughly a factor of five in time
// and network size so the full pipeline runs in seconds; onset times keep
// the same fractional positions.
func QuickPreset() Preset {
	p := PaperPreset()
	p.Nodes = 30
	p.Connections = 30
	p.Duration = 2000
	p.TrainSeed = 111
	p.NormalSeeds = []int64{211, 212}
	p.AttackSeeds = []int64{311, 312}
	p.BlackHoleStart = 500
	p.DropStart = 1000
	p.SessionDuration = 100
	p.SingleStarts = []float64{500, 1000, 1500}
	p.SingleSessionDuration = 50
	p.Warmup = 250
	p.PrefilterSize = 200
	return p
}

// SmokePreset is a minimal end-to-end configuration: the smallest
// network and shortest runs that still exercise every stage (simulate,
// discretise, train, score). It exists for fast golden/determinism tests
// — e.g. diffing full-report output across worker counts — not for
// meaningful detection accuracy.
func SmokePreset() Preset {
	p := PaperPreset()
	p.Nodes = 12
	p.Connections = 8
	p.Duration = 400
	p.TrainSeed = 121
	p.NormalSeeds = []int64{221}
	p.AttackSeeds = []int64{321}
	p.BlackHoleStart = 100
	p.DropStart = 200
	p.SessionDuration = 50
	p.SingleStarts = []float64{100, 200, 300}
	p.SingleSessionDuration = 25
	p.Warmup = 50
	p.PrefilterSize = 100
	return p
}

// Validate reports preset inconsistencies.
func (p Preset) Validate() error {
	switch {
	case p.Nodes < 3:
		return fmt.Errorf("experiments: need at least 3 nodes, have %d", p.Nodes)
	case p.Duration <= 0 || p.Sample <= 0:
		return fmt.Errorf("experiments: duration %g and sample %g must be positive", p.Duration, p.Sample)
	case int(p.AttackerNode) <= 0 || int(p.AttackerNode) >= p.Nodes:
		return fmt.Errorf("experiments: attacker node %d must be in (0,%d)", p.AttackerNode, p.Nodes)
	case p.BlackHoleStart >= p.Duration || p.DropStart >= p.Duration:
		return fmt.Errorf("experiments: intrusion onsets beyond run duration")
	case len(p.NormalSeeds) == 0 || len(p.AttackSeeds) == 0:
		return fmt.Errorf("experiments: need normal and attack test seeds")
	}
	return nil
}
