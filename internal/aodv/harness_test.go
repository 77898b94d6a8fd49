package aodv

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

// movable is a test mobility model whose position can be changed abruptly.
type movable struct {
	pos geom.Vec
}

func (m *movable) Update(float64) geom.Vec { return m.pos }

func (m *movable) Position() geom.Vec { return m.pos }

func (m *movable) Speed() float64 { return 0 }

// host wires one AODV router to the shared test medium.
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

// radio.Handler
func (h *host) HandleFrame(p *packet.Packet, from packet.NodeID)   { h.router.HandleFrame(p, from) }
func (h *host) OverhearFrame(p *packet.Packet, from packet.NodeID) { h.router.OverhearFrame(p, from) }

// testNet is a static-topology AODV network for protocol unit tests.
type testNet struct {
	eng    *sim.Engine
	medium *radio.Medium
	hosts  []*host
}

// newLine builds n nodes spaced 200 m apart on a line (radio range 250 m,
// so only adjacent nodes hear each other).
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

// sendData originates one data packet from src to dst.
func (n *testNet) sendData(src, dst int) *packet.Packet {
	h := n.hosts[src]
	p := h.alloc.New(packet.Data, h.id, n.hosts[dst].id, packet.DataSize)
	h.router.SendData(p)
	return p
}

func (n *testNet) run(t *testing.T, until float64) {
	t.Helper()
	if err := n.eng.Run(until); err != nil {
		t.Fatal(err)
	}
}
