package radio

import (
	"math"
	"testing"

	"crossfeature/internal/geom"
	"crossfeature/internal/mobility"
	"crossfeature/internal/packet"
	"crossfeature/internal/sim"
)

// recorder collects delivered and overheard frames.
type recorder struct {
	frames    []*packet.Packet
	overheard []*packet.Packet
}

func (r *recorder) HandleFrame(p *packet.Packet, from packet.NodeID) { r.frames = append(r.frames, p) }
func (r *recorder) OverhearFrame(p *packet.Packet, from packet.NodeID) {
	r.overheard = append(r.overheard, p)
}

// rig builds a medium with stations at fixed positions.
type rig struct {
	eng    *sim.Engine
	medium *Medium
	recs   []*recorder
	alloc  packet.Allocator
}

func newRig(t *testing.T, cfg Config, positions []geom.Vec, promiscuous bool) *rig {
	t.Helper()
	r := &rig{eng: sim.New(1)}
	r.medium = NewMedium(r.eng, cfg)
	for _, pos := range positions {
		rec := &recorder{}
		r.recs = append(r.recs, rec)
		r.medium.Attach(&mobility.Static{Pos: pos}, rec, promiscuous)
	}
	return r
}

func (r *rig) pkt(t packet.Type, src, dst packet.NodeID) *packet.Packet {
	return r.alloc.New(t, src, dst, packet.ControlSize)
}

func line(xs ...float64) []geom.Vec {
	out := make([]geom.Vec, len(xs))
	for i, x := range xs {
		out[i] = geom.Vec{X: x, Y: 0}
	}
	return out
}

func TestBroadcastReachesOnlyNodesInRange(t *testing.T) {
	cfg := DefaultConfig() // 250 m range
	r := newRig(t, cfg, line(0, 100, 200, 400), false)
	r.medium.Broadcast(0, r.pkt(packet.Hello, 0, packet.Broadcast))
	if err := r.eng.Run(1); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 1, 1, 0} {
		if got := len(r.recs[i].frames); got != want {
			t.Errorf("node %d received %d frames, want %d", i, got, want)
		}
	}
}

func TestUnicastDeliversAndOthersDoNotHear(t *testing.T) {
	r := newRig(t, DefaultConfig(), line(0, 100, 200), false)
	r.medium.Unicast(0, 1, r.pkt(packet.Data, 0, 1), nil)
	if err := r.eng.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(r.recs[1].frames) != 1 {
		t.Errorf("destination received %d frames", len(r.recs[1].frames))
	}
	if len(r.recs[2].frames) != 0 || len(r.recs[2].overheard) != 0 {
		t.Error("non-promiscuous bystander heard a unicast")
	}
}

func TestUnicastOutOfRangeTriggersOnFail(t *testing.T) {
	r := newRig(t, DefaultConfig(), line(0, 500), false)
	failed := false
	r.medium.Unicast(0, 1, r.pkt(packet.Data, 0, 1), func() { failed = true })
	if err := r.eng.Run(1); err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Error("out-of-range unicast did not report failure")
	}
	if len(r.recs[1].frames) != 0 {
		t.Error("out-of-range unicast delivered")
	}
}

func TestUnicastToSelfFails(t *testing.T) {
	r := newRig(t, DefaultConfig(), line(0, 100), false)
	failed := false
	r.medium.Unicast(0, 0, r.pkt(packet.Data, 0, 0), func() { failed = true })
	if err := r.eng.Run(1); err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Error("self unicast should fail")
	}
}

func TestPromiscuousOverhearing(t *testing.T) {
	r := newRig(t, DefaultConfig(), line(0, 100, 200), true)
	r.medium.Unicast(0, 1, r.pkt(packet.Data, 0, 1), nil)
	if err := r.eng.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(r.recs[2].overheard) != 1 {
		t.Errorf("promiscuous bystander overheard %d frames, want 1", len(r.recs[2].overheard))
	}
	if len(r.recs[1].overheard) != 0 {
		t.Error("the addressee should receive, not overhear")
	}
}

func TestDeliveryDelayScalesWithSize(t *testing.T) {
	deliveryTime := func(size int) float64 {
		cfg := DefaultConfig()
		eng := sim.New(1)
		m := NewMedium(eng, cfg)
		at := make(map[packet.NodeID]float64)
		m.Attach(&mobility.Static{Pos: geom.Vec{}}, &timedRecorder{eng: eng, at: at, id: 0}, false)
		m.Attach(&mobility.Static{Pos: geom.Vec{X: 100}}, &timedRecorder{eng: eng, at: at, id: 1}, false)
		var alloc packet.Allocator
		m.Unicast(0, 1, alloc.New(packet.Data, 0, 1, size), nil)
		if err := eng.Run(1); err != nil {
			t.Fatal(err)
		}
		return at[1]
	}
	small := deliveryTime(64)
	big := deliveryTime(4096)
	if big <= small {
		t.Errorf("4096-byte frame delivered in %v, not slower than 64-byte frame's %v", big, small)
	}
	cfg := DefaultConfig()
	wantBig := 4096*8/cfg.Bandwidth + cfg.PropDelay
	if diff := big - wantBig; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("big frame delivery at %v, want %v", big, wantBig)
	}
}

func TestInterfaceQueueSerialisesAndDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueLimit = 3
	r := newRig(t, cfg, line(0, 100), false)
	// Saturate: far more frames than the queue can hold, sent in one burst.
	for i := 0; i < 50; i++ {
		r.medium.Unicast(0, 1, r.pkt(packet.Data, 0, 1), nil)
	}
	if err := r.eng.Run(5); err != nil {
		t.Fatal(err)
	}
	if got := len(r.recs[1].frames); got >= 50 {
		t.Errorf("queue limit did not drop: delivered %d of 50", got)
	}
	if r.medium.QueueDrops() == 0 {
		t.Error("no queue drops recorded")
	}
	if len(r.recs[1].frames)+int(r.medium.QueueDrops()) != 50 {
		t.Errorf("delivered %d + dropped %d != 50", len(r.recs[1].frames), r.medium.QueueDrops())
	}
}

func TestZeroQueueLimitDisablesDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueLimit = 0
	r := newRig(t, cfg, line(0, 100), false)
	for i := 0; i < 100; i++ {
		r.medium.Unicast(0, 1, r.pkt(packet.Data, 0, 1), nil)
	}
	if err := r.eng.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := len(r.recs[1].frames); got != 100 {
		t.Errorf("delivered %d of 100 with unlimited queue", got)
	}
}

func TestRandomLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossRate = 0.5
	cfg.QueueLimit = 0 // isolate the loss model from interface queueing
	r := newRig(t, cfg, line(0, 100), false)
	fails := 0
	for i := 0; i < 200; i++ {
		r.medium.Unicast(0, 1, r.pkt(packet.Data, 0, 1), func() { fails++ })
	}
	if err := r.eng.Run(60); err != nil {
		t.Fatal(err)
	}
	delivered := len(r.recs[1].frames)
	if delivered+fails != 200 {
		t.Errorf("delivered %d + failed %d != 200", delivered, fails)
	}
	if delivered < 50 || delivered > 150 {
		t.Errorf("50%% loss delivered %d of 200; loss model broken", delivered)
	}
}

func TestInRangeAndNeighbors(t *testing.T) {
	r := newRig(t, DefaultConfig(), line(0, 100, 600), false)
	if !r.medium.InRange(0, 1) || r.medium.InRange(0, 2) {
		t.Error("InRange wrong")
	}
	if r.medium.InRange(0, 0) {
		t.Error("a node is not in range of itself")
	}
	nbrs := r.medium.Neighbors(1)
	if len(nbrs) != 1 || nbrs[0] != 0 {
		t.Errorf("Neighbors(1) = %v, want [0]", nbrs)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Range = 0 },
		func(c *Config) { c.Bandwidth = -1 },
		func(c *Config) { c.LossRate = 1.0 },
		func(c *Config) { c.LossRate = -0.1 },
	}
	for i, mut := range cases {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestBroadcastJitterDesynchronises(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BroadcastJitter = 0.05
	eng := sim.New(2)
	m := NewMedium(eng, cfg)
	times := make(map[packet.NodeID]float64)
	for i := 0; i < 5; i++ {
		id := packet.NodeID(i)
		rec := &timedRecorder{eng: eng, at: times, id: id}
		m.Attach(&mobility.Static{Pos: geom.Vec{X: float64(i), Y: 0}}, rec, false)
	}
	var alloc packet.Allocator
	m.Broadcast(0, alloc.New(packet.Hello, 0, packet.Broadcast, packet.ControlSize))
	if err := eng.Run(1); err != nil {
		t.Fatal(err)
	}
	seen := make(map[float64]bool)
	for id, at := range times {
		if seen[at] {
			t.Errorf("two receivers got the broadcast at the same instant %v (node %d)", at, id)
		}
		seen[at] = true
	}
	if len(times) != 4 {
		t.Errorf("broadcast reached %d of 4 neighbours", len(times))
	}
}

type timedRecorder struct {
	eng *sim.Engine
	at  map[packet.NodeID]float64
	id  packet.NodeID
}

func (r *timedRecorder) HandleFrame(p *packet.Packet, from packet.NodeID) { r.at[r.id] = r.eng.Now() }
func (r *timedRecorder) OverhearFrame(*packet.Packet, packet.NodeID)      {}

func TestMovingNodeLeavesRange(t *testing.T) {
	// A node moving away breaks the link partway through the run.
	cfg := DefaultConfig()
	eng := sim.New(3)
	m := NewMedium(eng, cfg)
	rec0, rec1 := &recorder{}, &recorder{}
	m.Attach(&mobility.Static{Pos: geom.Vec{}}, rec0, false)
	// Start in range, drift out at 50 m/s along x.
	mob := &driftModel{speed: 50}
	m.Attach(mob, rec1, false)
	var alloc packet.Allocator
	delivered, failed := 0, 0
	send := func() {
		m.Unicast(0, 1, alloc.New(packet.Data, 0, 1, packet.DataSize), func() { failed++ })
	}
	for i := 0; i < 10; i++ {
		eng.At(float64(i), send)
	}
	if err := eng.Run(20); err != nil {
		t.Fatal(err)
	}
	delivered = len(rec1.frames)
	if delivered == 0 || failed == 0 {
		t.Errorf("expected both deliveries and failures as the node drifts: delivered=%d failed=%d", delivered, failed)
	}
	if delivered+failed != 10 {
		t.Errorf("delivered %d + failed %d != 10", delivered, failed)
	}
}

// driftModel moves along +x at a constant speed.
type driftModel struct {
	speed float64
	now   float64
}

func (d *driftModel) Update(t float64) geom.Vec {
	if t > d.now {
		d.now = t
	}
	return d.Position()
}
func (d *driftModel) Position() geom.Vec { return geom.Vec{X: d.speed * d.now, Y: 0} }
func (d *driftModel) Speed() float64     { return d.speed }

// scribbler is a handler that overwrites every frame delivered to it, as a
// forwarding router mutating its copy would.
type scribbler struct{ recorder }

func (s *scribbler) HandleFrame(p *packet.Packet, from packet.NodeID) {
	s.recorder.HandleFrame(p, from)
	p.TTL, p.Hops, p.Header = -1, 99, "scribbled"
}

// TestFrameCopiesAreIsolated pins the frame copy-ownership rules: each
// broadcast receiver and each unicast addressee owns its copy, promiscuous
// bystanders share one read-only copy separate from the addressee's, and
// nothing a receiver does reaches the sender's packet.
func TestFrameCopiesAreIsolated(t *testing.T) {
	eng := sim.New(1)
	m := NewMedium(eng, DefaultConfig())
	mut := &scribbler{}
	recs := []*recorder{{}, {}, {}, {}}
	m.Attach(&mobility.Static{Pos: geom.Vec{X: 0}}, recs[0], true)
	m.Attach(&mobility.Static{Pos: geom.Vec{X: 50}}, mut, true)
	m.Attach(&mobility.Static{Pos: geom.Vec{X: 100}}, recs[2], true)
	m.Attach(&mobility.Static{Pos: geom.Vec{X: 150}}, recs[3], true)
	var alloc packet.Allocator
	orig := alloc.New(packet.Hello, 0, packet.Broadcast, packet.ControlSize)
	orig.Header = "hello"
	want := *orig
	intact := func(what string, p *packet.Packet) {
		t.Helper()
		if *p != want {
			t.Errorf("%s sees %+v, want %+v", what, *p, want)
		}
	}

	m.Broadcast(0, orig)
	if err := eng.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(mut.frames) != 1 || len(recs[2].frames) != 1 || len(recs[3].frames) != 1 {
		t.Fatalf("broadcast reached %d/%d/%d receivers", len(mut.frames), len(recs[2].frames), len(recs[3].frames))
	}
	intact("the sender", orig)
	intact("receiver 2", recs[2].frames[0])
	intact("receiver 3", recs[3].frames[0])

	// Unicast the same packet to the scribbler with nodes 2 and 3
	// listening promiscuously.
	orig.Dst = 1
	want = *orig
	m.Unicast(0, 1, orig, nil)
	if err := eng.Run(2); err != nil {
		t.Fatal(err)
	}
	if len(mut.frames) != 2 || len(recs[2].overheard) != 1 || len(recs[3].overheard) != 1 {
		t.Fatalf("unicast: addressee got %d frames, bystanders overheard %d/%d",
			len(mut.frames), len(recs[2].overheard), len(recs[3].overheard))
	}
	intact("the sender", orig)
	intact("bystander 2", recs[2].overheard[0])
	intact("bystander 3", recs[3].overheard[0])
	if recs[2].overheard[0] != recs[3].overheard[0] {
		t.Error("bystanders of one unicast got separate copies, want one shared copy")
	}
	if mut.frames[1] == recs[2].overheard[0] || mut.frames[1] == orig {
		t.Error("the addressee's copy is shared")
	}
	if len(recs[0].frames)+len(recs[0].overheard) != 0 {
		t.Error("the sender heard its own frame")
	}
}

// TestValidateRejectsNonFinite checks every float field against NaN and
// both infinities, which the range checks alone let through.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"range", func(c *Config, v float64) { c.Range = v }},
		{"bandwidth", func(c *Config, v float64) { c.Bandwidth = v }},
		{"propagation delay", func(c *Config, v float64) { c.PropDelay = v }},
		{"broadcast jitter", func(c *Config, v float64) { c.BroadcastJitter = v }},
		{"loss rate", func(c *Config, v float64) { c.LossRate = v }},
		{"MAC timeout", func(c *Config, v float64) { c.MACTimeout = v }},
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
