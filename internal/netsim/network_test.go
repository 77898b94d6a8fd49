package netsim

import (
	"math"
	"testing"

	"crossfeature/internal/attack"
	"crossfeature/internal/packet"
	"crossfeature/internal/trace"
)

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 12
	cfg.Connections = 8
	cfg.Duration = 120
	return cfg
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"one node", func(c *Config) { c.Nodes = 1 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"zero sample", func(c *Config) { c.SampleInterval = 0 }},
		{"bad routing", func(c *Config) { c.Routing = RoutingKind(9) }},
		{"bad transport", func(c *Config) { c.Transport = TransportKind(9) }},
		{"negative connections", func(c *Config) { c.Connections = -1 }},
		{"zero rate", func(c *Config) { c.Rate = 0 }},
		{"attack node out of range", func(c *Config) {
			c.Attacks = []attack.Spec{{Kind: attack.BlackHole, Node: 99}}
		}},
		{"bad mobility", func(c *Config) { c.Mobility.MaxSpeed = -1 }},
		{"bad radio", func(c *Config) { c.Radio.Range = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig()
			tc.mut(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("want construction error")
			}
		})
	}
}

// TestValidateRejectsNonFinite checks every float field of the scenario,
// and one of each nested config, against NaN and both infinities: a NaN
// duration used to pass Validate and run forever.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"duration", func(c *Config, v float64) { c.Duration = v }},
		{"sample interval", func(c *Config, v float64) { c.SampleInterval = v }},
		{"rate", func(c *Config, v float64) { c.Rate = v }},
		{"connection start window", func(c *Config, v float64) { c.ConnStartWindow = v }},
		{"mobility max speed", func(c *Config, v float64) { c.Mobility.MaxSpeed = v }},
		{"radio loss rate", func(c *Config, v float64) { c.Radio.LossRate = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := tinyConfig()
			f.set(&cfg, v)
			if _, err := New(cfg); err == nil {
				t.Errorf("%s = %v accepted", f.name, v)
			}
		}
	}
}

func TestMonitoredNodeOutOfRange(t *testing.T) {
	cfg := tinyConfig()
	cfg.MonitorNodes = []packet.NodeID{99}
	if _, err := New(cfg); err == nil {
		t.Error("bad monitor node accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []trace.Snapshot {
		cfg := tinyConfig()
		cfg.Seed = 17
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
		return n.Snapshots(0)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("snapshot counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("snapshot %d differs between identical runs", i)
		}
	}
}

func TestWorkloadSeedSharesConnections(t *testing.T) {
	build := func(seed int64) []Connection {
		cfg := tinyConfig()
		cfg.Seed = seed
		cfg.WorkloadSeed = 42
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n.Connections()
	}
	a, b := build(1), build(2)
	if len(a) != len(b) {
		t.Fatalf("connection counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("connection %d differs despite shared workload seed", i)
		}
	}
}

func TestWorkloadSeedSharesMobility(t *testing.T) {
	posAt := func(seed int64) float64 {
		cfg := tinyConfig()
		cfg.Seed = seed
		cfg.WorkloadSeed = 42
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mob := n.Node(0).Mobility()
		mob.Update(60)
		return mob.Position().X
	}
	if posAt(1) != posAt(2) {
		t.Error("trajectories differ despite shared workload seed")
	}
}

func TestDifferentWorkloadSeedsDiffer(t *testing.T) {
	build := func(ws int64) []Connection {
		cfg := tinyConfig()
		cfg.WorkloadSeed = ws
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n.Connections()
	}
	a, b := build(1), build(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different workload seeds produced identical workloads")
	}
}

func TestPinnedConnectionsInvolveMonitoredNode(t *testing.T) {
	cfg := tinyConfig()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src0, dst0 := 0, 0
	for _, c := range n.Connections() {
		if c.Src == 0 {
			src0++
		}
		if c.Dst == 0 {
			dst0++
		}
	}
	if src0 < 2 || dst0 < 2 {
		t.Errorf("monitored node pinned into %d source and %d destination flows", src0, dst0)
	}
}

func TestNoSelfConnections(t *testing.T) {
	cfg := tinyConfig()
	cfg.Connections = 50
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range n.Connections() {
		if c.Src == c.Dst {
			t.Fatalf("self-connection %+v", c)
		}
	}
}

func TestAttackInstallation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Attacks = []attack.Spec{{
		Kind:     attack.BlackHole,
		Node:     3,
		Sessions: attack.Sessions(20, 50),
	}}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if !n.Plan().ActiveAt(60) || n.Plan().ActiveAt(80) {
		t.Error("plan does not reflect the configured sessions")
	}
}

func TestSnapshotTimesAreRegular(t *testing.T) {
	cfg := tinyConfig()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	snaps := n.Snapshots(0)
	for i, s := range snaps {
		want := float64(i+1) * cfg.SampleInterval
		if s.Time != want {
			t.Fatalf("snapshot %d at t=%v, want %v", i, s.Time, want)
		}
	}
}

func TestUnmonitoredNodesKeepNoHistory(t *testing.T) {
	cfg := tinyConfig()
	cfg.MonitorNodes = []packet.NodeID{2}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if len(n.Snapshots(2)) == 0 {
		t.Error("monitored node has no snapshots")
	}
	if len(n.Snapshots(0)) != 0 {
		t.Error("unmonitored node retained snapshots")
	}
}

func TestBlackHoleDepressesDelivery(t *testing.T) {
	base := tinyConfig()
	base.Nodes = 20
	base.Connections = 15
	base.Duration = 300
	clean, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Run(); err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Attacks = []attack.Spec{{
		Kind:     attack.BlackHole,
		Node:     5,
		Sessions: []attack.Session{{Start: 50, Duration: 250}},
	}}
	attacked, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := attacked.Run(); err != nil {
		t.Fatal(err)
	}
	co, cd := deliveryOf(t, clean)
	ao, ad := deliveryOf(t, attacked)
	cleanRatio := float64(cd) / float64(co)
	attackedRatio := float64(ad) / float64(ao)
	t.Logf("clean=%.2f attacked=%.2f", cleanRatio, attackedRatio)
	if attackedRatio > cleanRatio*0.8 {
		t.Errorf("black hole barely hurt delivery: %.2f vs %.2f", attackedRatio, cleanRatio)
	}
}

func deliveryOf(t *testing.T, n *Network) (orig, del uint64) {
	t.Helper()
	orig, del = deliveryStats(t, n)
	return orig, del
}

func TestUpdateStormFloodsVisibleAtMonitor(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 200
	cfg.Attacks = []attack.Spec{{
		Kind:     attack.UpdateStorm,
		Node:     4,
		Sessions: []attack.Session{{Start: 100, Duration: 50}},
	}}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	var before, during float64
	var nb, nd int
	for _, s := range n.Snapshots(0) {
		rreq := float64(s.Traffic[trace.ClassRREQ][trace.Received][0].Count)
		switch {
		case s.Time > 50 && s.Time <= 100:
			before += rreq
			nb++
		case s.Time > 100 && s.Time <= 150:
			during += rreq
			nd++
		}
	}
	if nb == 0 || nd == 0 {
		t.Fatal("no samples")
	}
	if during/float64(nd) <= 2*before/float64(nb) {
		t.Errorf("storm barely visible: before=%.1f during=%.1f RREQs/5s",
			before/float64(nb), during/float64(nd))
	}
}
