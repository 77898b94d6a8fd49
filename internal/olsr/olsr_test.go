package olsr

import (
	"math/rand"
	"testing"

	"crossfeature/internal/geom"
	"crossfeature/internal/packet"
	"crossfeature/internal/radio"
	"crossfeature/internal/routing"
	"crossfeature/internal/sim"
	"crossfeature/internal/trace"
)

// The test harness mirrors the AODV/DSR protocol test rigs: static nodes
// on a shared medium, one Router per host.

type movable struct {
	pos geom.Vec
}

func (m *movable) Update(float64) geom.Vec { return m.pos }

func (m *movable) Position() geom.Vec { return m.pos }

func (m *movable) Speed() float64 { return 0 }

type host struct {
	id        packet.NodeID
	eng       *sim.Engine
	medium    *radio.Medium
	alloc     *packet.Allocator
	router    *Router
	collector *trace.Collector
	mob       *movable
	delivered []*packet.Packet
}

var _ routing.Env = (*host)(nil)

func (h *host) ID() packet.NodeID { return h.id }
func (h *host) Now() float64      { return h.eng.Now() }
func (h *host) Rand() *rand.Rand  { return h.eng.Rand() }
func (h *host) Audit() trace.Sink { return h.collector }

func (h *host) Schedule(delay float64, fn func()) { h.eng.Schedule(delay, fn) }

func (h *host) AfterFunc(delay float64, fn func()) *sim.Timer { return h.eng.AfterFunc(delay, fn) }

func (h *host) Tick(interval, jitter float64, fn func()) *sim.Ticker {
	return h.eng.Tick(interval, jitter, fn)
}

func (h *host) NewPacket(t packet.Type, src, dst packet.NodeID, size int) *packet.Packet {
	return h.alloc.New(t, src, dst, size)
}

func (h *host) Broadcast(p *packet.Packet) { h.medium.Broadcast(h.id, p) }

func (h *host) Unicast(to packet.NodeID, p *packet.Packet, onFail func()) {
	h.medium.Unicast(h.id, to, p, onFail)
}

func (h *host) DeliverUp(p *packet.Packet) { h.delivered = append(h.delivered, p) }

func (h *host) HandleFrame(p *packet.Packet, from packet.NodeID)   { h.router.HandleFrame(p, from) }
func (h *host) OverhearFrame(p *packet.Packet, from packet.NodeID) { h.router.OverhearFrame(p, from) }

type testNet struct {
	eng    *sim.Engine
	medium *radio.Medium
	hosts  []*host
}

func newLine(t *testing.T, n int, cfg Config) *testNet {
	t.Helper()
	eng := sim.New(1)
	medium := radio.NewMedium(eng, radio.DefaultConfig())
	alloc := &packet.Allocator{}
	net := &testNet{eng: eng, medium: medium}
	for i := 0; i < n; i++ {
		h := &host{
			eng:       eng,
			medium:    medium,
			alloc:     alloc,
			collector: trace.NewCollector(),
			mob:       &movable{pos: geom.Vec{X: float64(i) * 200}},
		}
		h.router = New(h, cfg)
		h.id = medium.Attach(h.mob, h, false)
		net.hosts = append(net.hosts, h)
	}
	return net
}

func (n *testNet) start() {
	for _, h := range n.hosts {
		h.router.Start()
	}
}

func (n *testNet) sendData(src, dst int) {
	h := n.hosts[src]
	p := h.alloc.New(packet.Data, h.id, n.hosts[dst].id, packet.DataSize)
	h.router.SendData(p)
}

func (n *testNet) run(t *testing.T, until float64) {
	t.Helper()
	if err := n.eng.Run(until); err != nil {
		t.Fatal(err)
	}
}

// convergence time: a few HELLO + TC rounds.
const converge = 30

func TestNeighborSensingBecomesSymmetric(t *testing.T) {
	net := newLine(t, 2, DefaultConfig())
	net.start()
	net.run(t, converge)
	nb := net.hosts[0].router.neighbors[net.hosts[1].id]
	if nb == nil || !nb.sym {
		t.Fatal("adjacent nodes never became symmetric neighbours")
	}
}

func TestRoutingTableConvergesOverThreeHops(t *testing.T) {
	net := newLine(t, 4, DefaultConfig())
	net.start()
	net.run(t, converge)
	next, hops, ok := net.hosts[0].router.RouteTo(net.hosts[3].id)
	if !ok {
		t.Fatal("no route to a 3-hop destination after convergence")
	}
	if next != net.hosts[1].id || hops != 3 {
		t.Errorf("route = via %d at %d hops, want via 1 at 3", next, hops)
	}
}

func TestDataDeliveryProactive(t *testing.T) {
	net := newLine(t, 4, DefaultConfig())
	net.start()
	net.run(t, converge)
	net.eng.At(converge+1, func() { net.sendData(0, 3) })
	net.run(t, converge+5)
	if len(net.hosts[3].delivered) != 1 {
		t.Fatal("proactive delivery over 3 hops failed")
	}
	snap := net.hosts[0].collector.Snapshot(converge+5, 0, 0)
	if snap.RouteCounts[trace.RouteFind] == 0 {
		t.Error("send did not record a table hit (RouteFind)")
	}
}

func TestMPRSelectionCoversTwoHop(t *testing.T) {
	net := newLine(t, 3, DefaultConfig())
	net.start()
	net.run(t, converge)
	// Node 0's only route to node 2 is via node 1: node 1 must be its MPR.
	if _, ok := net.hosts[0].router.mprs[net.hosts[1].id]; !ok {
		t.Error("middle node not selected as MPR")
	}
}

func TestTCFloodsOnlyThroughMPRs(t *testing.T) {
	net := newLine(t, 5, DefaultConfig())
	net.start()
	net.run(t, converge)
	// Everyone should know a route to everyone on a line.
	for i, h := range net.hosts {
		for j := range net.hosts {
			if i == j {
				continue
			}
			if _, _, ok := h.router.RouteTo(net.hosts[j].id); !ok {
				t.Errorf("node %d lacks a route to node %d after convergence", i, j)
			}
		}
	}
}

func TestLinkBreakHealsProactively(t *testing.T) {
	cfg := DefaultConfig()
	net := newLine(t, 4, cfg)
	// Diamond: node 0 reaches node 3 via node 1 or node 2 (all adjacent
	// pairs within the 250 m range, 0-3 out of range).
	net.hosts[0].mob.pos = geom.Vec{X: 0, Y: 0}
	net.hosts[1].mob.pos = geom.Vec{X: 200, Y: 0}
	net.hosts[2].mob.pos = geom.Vec{X: 120, Y: 160}
	net.hosts[3].mob.pos = geom.Vec{X: 320, Y: 80}
	net.start()
	net.run(t, converge)
	if _, _, ok := net.hosts[0].router.RouteTo(net.hosts[3].id); !ok {
		t.Fatal("no initial route")
	}
	// Kill node 1: move far away. The protocol must re-route via node 2.
	net.hosts[1].mob.pos = geom.Vec{Y: 10000}
	net.run(t, converge+20)
	next, _, ok := net.hosts[0].router.RouteTo(net.hosts[3].id)
	if !ok {
		t.Fatal("route never healed after losing the relay")
	}
	if next != net.hosts[2].id {
		t.Errorf("healed route goes via %d, want via node 2", next)
	}
	snap := net.hosts[0].collector.Snapshot(converge+20, 0, 0)
	if snap.RouteCounts[trace.RouteRemoval] == 0 && snap.RouteCounts[trace.RouteAdd] == 0 {
		t.Error("healing produced no route-table audit events")
	}
}

func TestBlackHoleTCPullsRoutes(t *testing.T) {
	net := newLine(t, 4, DefaultConfig())
	attacker := net.hosts[2]
	victims := []packet.NodeID{net.hosts[0].id, net.hosts[1].id, net.hosts[3].id}
	attacker.router.SetBlackHoleTargets(victims)
	net.start()
	net.run(t, converge)
	// Node 0's honest route to node 3 is 3 hops (0-1-2-3).
	_, hops, ok := net.hosts[0].router.RouteTo(net.hosts[3].id)
	if !ok || hops != 3 {
		t.Fatalf("baseline route = %d hops, ok=%v", hops, ok)
	}
	net.eng.At(converge+1, func() { attacker.router.AdvertiseBlackHole() })
	// Check right after the flood settles, before the attacker's next
	// LEGITIMATE TC purges the lie: unlike AODV's permanent max-sequence
	// poison, OLSR heals within one TC interval, so a black hole must keep
	// re-advertising (which the attack scheduler does).
	net.run(t, converge+2)
	links := net.hosts[0].router.topology[attacker.id]
	if links == nil {
		t.Fatal("bogus TC never reached node 0")
	}
	found := 0
	for _, v := range victims {
		if _, ok := links[v]; ok {
			found++
		}
	}
	if found != len(victims) {
		t.Errorf("only %d/%d fabricated links installed", found, len(victims))
	}
}

func TestStormFloodVisible(t *testing.T) {
	net := newLine(t, 3, DefaultConfig())
	net.start()
	net.run(t, converge)
	before := net.hosts[0].collector.Snapshot(converge, 0, 0).
		Traffic[trace.ClassRREQ][trace.Received][2].Count
	net.eng.At(converge+1, func() {
		for i := 0; i < 20; i++ {
			net.hosts[2].router.FloodBogusDiscovery()
		}
	})
	net.run(t, converge+5)
	after := net.hosts[0].collector.Snapshot(converge+5, 0, 0).
		Traffic[trace.ClassRREQ][trace.Received][2].Count
	if after <= before {
		t.Errorf("storm floods invisible at node 0: before=%d after=%d", before, after)
	}
}

func TestAvgRouteLength(t *testing.T) {
	net := newLine(t, 4, DefaultConfig())
	net.start()
	net.run(t, converge)
	if got := net.hosts[0].router.AvgRouteLength(); got <= 1 {
		t.Errorf("avg route length = %v, want > 1 on a 4-node line", got)
	}
}

func TestDropFilterAudited(t *testing.T) {
	net := newLine(t, 3, DefaultConfig())
	net.hosts[1].router.SetDropFilter(func(p *packet.Packet) bool {
		return p.Type == packet.Data
	})
	net.start()
	net.run(t, converge)
	net.eng.At(converge+1, func() { net.sendData(0, 2) })
	net.run(t, converge+5)
	if len(net.hosts[2].delivered) != 0 {
		t.Error("drop filter did not discard relayed data")
	}
	snap := net.hosts[1].collector.Snapshot(converge+5, 0, 0)
	if snap.Traffic[trace.ClassRouteAll][trace.Dropped][2].Count == 0 {
		t.Error("malicious drop not recorded")
	}
}
