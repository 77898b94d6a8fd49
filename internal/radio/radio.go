// Package radio models the shared wireless medium. It provides the two
// link-layer services MANET routing protocols rely on: broadcast within
// transmission range, and unicast with MAC-level failure feedback (the
// signal AODV and DSR use to detect broken links). Nodes that enable
// promiscuous mode additionally overhear frames addressed to others, which
// DSR exploits for route learning and the black-hole attack exploits for
// poisoning.
package radio

import (
	"fmt"
	"math"
	"math/rand"

	"crossfeature/internal/mobility"
	"crossfeature/internal/packet"
	"crossfeature/internal/sim"
)

// Config describes the physical and MAC layer model.
type Config struct {
	Range           float64 // transmission range in metres
	Bandwidth       float64 // channel rate in bits/s
	PropDelay       float64 // propagation delay in seconds
	BroadcastJitter float64 // max random extra delay on broadcast receive, seconds
	LossRate        float64 // independent per-frame loss probability in [0,1)
	MACTimeout      float64 // delay before a failed unicast reports the break
	// QueueLimit bounds each node's interface queue in frames (ns-2's
	// ifq len, default 50): transmissions serialise on the air interface
	// and frames arriving at a full queue are dropped. This is what lets a
	// black hole that attracts the whole network's traffic stay damaging
	// even when it stops actively dropping. Zero disables queueing.
	QueueLimit int
}

// DefaultConfig uses the classical ns-2 wireless defaults: 250 m range and
// a 2 Mb/s channel.
func DefaultConfig() Config {
	return Config{
		Range:           250,
		Bandwidth:       2e6,
		PropDelay:       2e-6,
		BroadcastJitter: 0.01,
		LossRate:        0,
		MACTimeout:      0.05,
		QueueLimit:      50,
	}
}

// Validate reports whether the configuration is self-consistent.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"range", c.Range},
		{"bandwidth", c.Bandwidth},
		{"propagation delay", c.PropDelay},
		{"broadcast jitter", c.BroadcastJitter},
		{"loss rate", c.LossRate},
		{"MAC timeout", c.MACTimeout},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("radio: %s %g must be finite", f.name, f.v)
		}
	}
	switch {
	case c.Range <= 0:
		return fmt.Errorf("radio: range %g must be positive", c.Range)
	case c.Bandwidth <= 0:
		return fmt.Errorf("radio: bandwidth %g must be positive", c.Bandwidth)
	case c.LossRate < 0 || c.LossRate >= 1:
		return fmt.Errorf("radio: loss rate %g outside [0,1)", c.LossRate)
	}
	return nil
}

// Handler receives frames from the medium.
type Handler interface {
	// HandleFrame delivers a frame addressed to this node (or broadcast).
	// The packet is the receiver's own copy: it may mutate or keep it.
	HandleFrame(p *packet.Packet, from packet.NodeID)
	// OverhearFrame delivers a frame addressed to another node; called only
	// when the station registered with promiscuous mode. All bystanders of
	// one transmission share one copy, so the packet is read-only: clone it
	// before changing any field.
	OverhearFrame(p *packet.Packet, from packet.NodeID)
}

// station is one attachment to the medium.
type station struct {
	mob         mobility.Model
	handler     Handler
	promiscuous bool
	// busyUntil is when the station's air interface frees up; frames queue
	// behind it up to the configured queue limit.
	busyUntil float64
	// down marks a crashed node: it neither transmits nor receives.
	down bool

	// Per-instant caches. Positions are constant within one simulated
	// instant, so every frame handled at the same timestamp shares one
	// mobility update (posTime) and one in-range scan (nbrTime) instead of
	// recomputing geometry per receiver. Initialised to NaN, which is a
	// valid "never" sentinel because NaN != t for every t.
	posTime    float64
	posX, posY float64
	nbrTime    float64
	nbrs       []packet.NodeID
}

// linkKey identifies an undirected link; endpoints are stored low-to-high.
type linkKey struct {
	a, b packet.NodeID
}

func newLinkKey(a, b packet.NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a: a, b: b}
}

// Medium is the shared channel. It is single-threaded, driven by the
// simulation engine.
type Medium struct {
	eng      *sim.Engine
	cfg      Config
	rng      *rand.Rand
	stations []*station
	sent     uint64
	lost     uint64
	qdrops   uint64

	// Fault-injection state (internal/faults): per-link extra loss, a
	// network-wide noise floor and per-station down flags. All zero in a
	// healthy network, in which case no extra random draws happen and the
	// medium's random stream is identical to a fault-free build.
	linkLoss  map[linkKey]float64
	noise     float64
	faultLost uint64

	// Event callbacks bound once at construction, so scheduling a frame's
	// airtime and deliveries allocates no closure (sim.Engine.AtCall).
	broadcastAir, unicastAir, deliver, overhear func(arg any, n int)
}

// frame is one receiver's view of a transmission: the link-layer sender
// and the packet copy it hears.
type frame struct {
	from packet.NodeID
	pkt  packet.Packet
}

// unicastTx carries one unicast from queueing to delivery in a single
// allocation: the sender's packet (copied at airtime), the failure
// callback, the addressee's private copy and the one read-only copy that
// every promiscuous bystander shares.
type unicastTx struct {
	to     packet.NodeID
	p      *packet.Packet
	onFail func()
	rx     frame
	heard  frame
}

// NewMedium creates a medium on the given engine.
func NewMedium(eng *sim.Engine, cfg Config) *Medium {
	m := &Medium{eng: eng, cfg: cfg, rng: eng.Rand()}
	m.broadcastAir = m.broadcastAirtime
	m.unicastAir = m.unicastAirtime
	m.deliver = m.deliverFrame
	m.overhear = m.overhearFrame
	return m
}

// Attach registers a node. IDs must be assigned densely from zero in
// registration order; Attach returns the assigned ID.
func (m *Medium) Attach(mob mobility.Model, h Handler, promiscuous bool) packet.NodeID {
	m.stations = append(m.stations, &station{
		mob: mob, handler: h, promiscuous: promiscuous,
		posTime: math.NaN(), nbrTime: math.NaN(),
	})
	return packet.NodeID(len(m.stations) - 1)
}

// Stations reports the number of attached nodes.
func (m *Medium) Stations() int { return len(m.stations) }

// FramesSent reports total transmission attempts.
func (m *Medium) FramesSent() uint64 { return m.sent }

// FramesLost reports frames dropped by the random-loss model.
func (m *Medium) FramesLost() uint64 { return m.lost }

// QueueDrops reports frames dropped at full interface queues.
func (m *Medium) QueueDrops() uint64 { return m.qdrops }

// FaultLost reports frames dropped by injected faults (link flaps, noise
// bursts and crashed receivers).
func (m *Medium) FaultLost() uint64 { return m.faultLost }

// SetDown silences (or revives) a station. A down station transmits
// nothing and hears nothing; frames in flight toward it at crash time are
// lost.
func (m *Medium) SetDown(id packet.NodeID, down bool) {
	if m.valid(id) {
		m.stations[id].down = down
	}
}

// Down reports whether a station is currently silenced.
func (m *Medium) Down(id packet.NodeID) bool {
	return m.valid(id) && m.stations[id].down
}

// SetLinkLoss installs an extra loss probability on the undirected link
// between a and b; loss <= 0 clears it. Fault-injection hook for link
// flapping.
func (m *Medium) SetLinkLoss(a, b packet.NodeID, loss float64) {
	if !m.valid(a) || !m.valid(b) || a == b {
		return
	}
	if loss <= 0 {
		delete(m.linkLoss, newLinkKey(a, b))
		return
	}
	if loss > 1 {
		loss = 1
	}
	if m.linkLoss == nil {
		m.linkLoss = make(map[linkKey]float64)
	}
	m.linkLoss[newLinkKey(a, b)] = loss
}

// AddNoise shifts the network-wide extra loss probability by delta
// (clamped to [0, 1)). Fault-injection hook for noise bursts; bursts
// stack additively and remove themselves with a negative delta.
func (m *Medium) AddNoise(delta float64) {
	m.noise += delta
	if m.noise < 0 {
		m.noise = 0
	}
	if m.noise >= 1 {
		m.noise = 0.999
	}
}

// Noise reports the current network-wide extra loss probability.
func (m *Medium) Noise() float64 { return m.noise }

// faultDropped draws the fault-loss processes for a frame from a to b and
// reports whether one of them killed it. No randomness is consumed while
// no fault is active, keeping fault-free runs bit-identical.
func (m *Medium) faultDropped(a, b packet.NodeID) bool {
	if m.noise > 0 && m.rng.Float64() < m.noise {
		m.faultLost++
		return true
	}
	if len(m.linkLoss) > 0 {
		if loss, ok := m.linkLoss[newLinkKey(a, b)]; ok && m.rng.Float64() < loss {
			m.faultLost++
			return true
		}
	}
	return false
}

// txDelay is the serialisation delay for a frame.
func (m *Medium) txDelay(size int) float64 {
	return float64(size*8) / m.cfg.Bandwidth
}

// position refreshes and returns a station's position at the current time,
// cached per simulated instant.
func (m *Medium) position(id packet.NodeID) (x, y float64) {
	st := m.stations[id]
	now := m.eng.Now()
	if st.posTime != now {
		p := st.mob.Update(now)
		st.posTime, st.posX, st.posY = now, p.X, p.Y
	}
	return st.posX, st.posY
}

// neighbors returns the stations currently within range of id, in
// ascending ID order, cached per simulated instant. The caller must not
// retain or mutate the returned slice past the current event. Ascending
// order matters: transmit paths draw per-receiver randomness while
// iterating, so the order is part of the deterministic trace contract.
func (m *Medium) neighbors(id packet.NodeID) []packet.NodeID {
	st := m.stations[id]
	now := m.eng.Now()
	if st.nbrTime == now {
		return st.nbrs
	}
	x, y := m.position(id)
	r2 := m.cfg.Range * m.cfg.Range
	st.nbrs = st.nbrs[:0]
	for other := range m.stations {
		oid := packet.NodeID(other)
		if oid == id {
			continue
		}
		ox, oy := m.position(oid)
		dx, dy := x-ox, y-oy
		if dx*dx+dy*dy <= r2 {
			st.nbrs = append(st.nbrs, oid)
		}
	}
	st.nbrTime = now
	return st.nbrs
}

// InRange reports whether two nodes can currently hear each other.
func (m *Medium) InRange(a, b packet.NodeID) bool {
	if !m.valid(a) || !m.valid(b) || a == b {
		return false
	}
	ax, ay := m.position(a)
	bx, by := m.position(b)
	dx, dy := ax-bx, ay-by
	return dx*dx+dy*dy <= m.cfg.Range*m.cfg.Range
}

// Neighbors returns the IDs currently within range of id. The result is
// the caller's to keep; the per-tick cache stays internal.
func (m *Medium) Neighbors(id packet.NodeID) []packet.NodeID {
	if !m.valid(id) {
		return nil
	}
	nbrs := m.neighbors(id)
	if len(nbrs) == 0 {
		return nil
	}
	return append([]packet.NodeID(nil), nbrs...)
}

func (m *Medium) valid(id packet.NodeID) bool {
	return id >= 0 && int(id) < len(m.stations)
}

// acquire reserves the sender's air interface for one frame, returning the
// serialisation start time. It reports false — a congestion (interface
// queue) drop — when the backlog exceeds the queue limit.
func (m *Medium) acquire(from packet.NodeID, size int) (float64, bool) {
	st := m.stations[from]
	now := m.eng.Now()
	start := now
	if st.busyUntil > start {
		start = st.busyUntil
	}
	tx := m.txDelay(size)
	if m.cfg.QueueLimit > 0 && (start-now) > tx*float64(m.cfg.QueueLimit) {
		m.qdrops++
		return 0, false
	}
	st.busyUntil = start + tx
	return start, true
}

// Broadcast transmits p to every station in range of from at transmission
// time. Each receiver gets an independent jitter so flood retransmissions
// desynchronise, matching ns-2's broadcast jitter. Frames arriving at a
// full interface queue are dropped silently (an ns-2 IFQ drop).
func (m *Medium) Broadcast(from packet.NodeID, p *packet.Packet) {
	if !m.valid(from) || m.stations[from].down {
		return
	}
	start, ok := m.acquire(from, p.Size)
	if !ok {
		return
	}
	m.sent++
	m.eng.AtCall(start, m.broadcastAir, p, int(from))
}

// broadcastAirtime puts a queued broadcast (arg, from station n) on the
// air. Every receiver that survives the loss draws gets a private copy of
// the packet, all cut from one slab allocated for the transmission.
func (m *Medium) broadcastAirtime(arg any, n int) {
	from := packet.NodeID(n)
	if m.stations[from].down {
		return // crashed between queueing and airtime
	}
	p := arg.(*packet.Packet)
	base := m.txDelay(p.Size) + m.cfg.PropDelay
	nbrs := m.neighbors(from)
	var copies []frame
	for _, oid := range nbrs {
		if m.cfg.LossRate > 0 && m.rng.Float64() < m.cfg.LossRate {
			m.lost++
			continue
		}
		if m.faultDropped(from, oid) {
			continue
		}
		delay := base
		if m.cfg.BroadcastJitter > 0 {
			delay += m.rng.Float64() * m.cfg.BroadcastJitter
		}
		if copies == nil {
			copies = make([]frame, 0, len(nbrs)) // never regrown: the events hold &copies[i]
		}
		copies = append(copies, frame{from: from, pkt: *p})
		m.eng.AtCall(m.eng.Now()+delay, m.deliver, &copies[len(copies)-1], int(oid))
	}
}

// Unicast transmits p from one node to a specific next hop. If at
// transmission time the next hop is out of range or the frame is lost,
// onFail runs after the MAC timeout, modelling a missing link-layer
// acknowledgement. Congestion drops at a full interface queue are silent,
// as in ns-2: the routing layer sees no link break, the packet just dies.
// Promiscuous stations in range overhear successful transmissions.
func (m *Medium) Unicast(from, to packet.NodeID, p *packet.Packet, onFail func()) {
	if !m.valid(from) || !m.valid(to) || from == to {
		if onFail != nil {
			m.eng.Schedule(m.cfg.MACTimeout, onFail)
		}
		return
	}
	if m.stations[from].down {
		return // a crashed sender transmits nothing and hears no timeout
	}
	start, qok := m.acquire(from, p.Size)
	if !qok {
		return
	}
	m.sent++
	m.eng.AtCall(start, m.unicastAir, &unicastTx{to: to, p: p, onFail: onFail}, int(from))
}

// unicastAirtime puts a queued unicast (arg, from station n) on the air.
func (m *Medium) unicastAirtime(arg any, n int) {
	from := packet.NodeID(n)
	if m.stations[from].down {
		return
	}
	tx := arg.(*unicastTx)
	to := tx.to
	// A down receiver is indistinguishable from one out of range: the
	// MAC never sees an acknowledgement.
	ok := m.InRange(from, to) && !m.stations[to].down
	if ok && m.cfg.LossRate > 0 && m.rng.Float64() < m.cfg.LossRate {
		m.lost++
		ok = false
	}
	if ok && m.faultDropped(from, to) {
		ok = false
	}
	if !ok {
		if tx.onFail != nil {
			m.eng.Schedule(m.cfg.MACTimeout, tx.onFail)
		}
		return
	}
	delay := m.txDelay(tx.p.Size) + m.cfg.PropDelay
	at := m.eng.Now() + delay
	tx.rx = frame{from: from, pkt: *tx.p}
	m.eng.AtCall(at, m.deliver, &tx.rx, int(to))
	// Promiscuous delivery to bystanders within range of the sender, all
	// reading one shared copy.
	heard := false
	for _, oid := range m.neighbors(from) {
		if oid == to {
			continue
		}
		st := m.stations[oid]
		if !st.promiscuous || st.down {
			continue
		}
		if !heard {
			tx.heard = frame{from: from, pkt: *tx.p}
			heard = true
		}
		m.eng.AtCall(at, m.overhear, &tx.heard, int(oid))
	}
	// The copies are taken. A receiver that keeps its copy keeps tx alive,
	// so drop tx's hold on the sender's packet and callback.
	tx.p, tx.onFail = nil, nil
}

// deliverFrame hands frame arg to station n's HandleFrame unless the
// station went down while the frame was in flight.
func (m *Medium) deliverFrame(arg any, n int) {
	if st := m.stations[n]; !st.down {
		f := arg.(*frame)
		st.handler.HandleFrame(&f.pkt, f.from)
	}
}

// overhearFrame is deliverFrame for a promiscuous bystander.
func (m *Medium) overhearFrame(arg any, n int) {
	if st := m.stations[n]; !st.down {
		f := arg.(*frame)
		st.handler.OverhearFrame(&f.pkt, f.from)
	}
}
