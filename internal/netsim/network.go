package netsim

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"crossfeature/internal/aodv"
	"crossfeature/internal/attack"
	"crossfeature/internal/dsr"
	"crossfeature/internal/faults"
	"crossfeature/internal/mobility"
	"crossfeature/internal/olsr"
	"crossfeature/internal/packet"
	"crossfeature/internal/radio"
	"crossfeature/internal/sim"
	"crossfeature/internal/trace"
	"crossfeature/internal/traffic"
)

// RoutingKind selects the routing protocol of a scenario.
type RoutingKind int

const (
	// AODV selects Ad hoc On-demand Distance Vector routing.
	AODV RoutingKind = iota + 1
	// DSR selects Dynamic Source Routing.
	DSR
	// OLSR selects the proactive Optimized Link State Routing protocol
	// (an extension beyond the paper's two evaluated protocols).
	OLSR
)

// String implements fmt.Stringer.
func (k RoutingKind) String() string {
	switch k {
	case AODV:
		return "AODV"
	case DSR:
		return "DSR"
	case OLSR:
		return "OLSR"
	default:
		return fmt.Sprintf("RoutingKind(%d)", int(k))
	}
}

// TransportKind selects the transport workload of a scenario.
type TransportKind int

const (
	// CBR selects open-loop UDP/CBR traffic.
	CBR TransportKind = iota + 1
	// TCP selects the closed-loop window-based reliable transport.
	TCP
)

// String implements fmt.Stringer.
func (k TransportKind) String() string {
	switch k {
	case CBR:
		return "UDP"
	case TCP:
		return "TCP"
	default:
		return fmt.Sprintf("TransportKind(%d)", int(k))
	}
}

// Config describes a complete scenario. DefaultConfig matches the paper's
// setup (section 4.1).
type Config struct {
	Nodes int
	Seed  int64
	// WorkloadSeed separately seeds the scenario script — node movement
	// and the traffic pattern (connection endpoints and start offsets) —
	// so that multiple traces of one scenario share the same background
	// while link-layer jitter and protocol dynamics vary with Seed. This
	// mirrors the ns-2 methodology visible in the paper's Figure 3, where
	// normal and abnormal traces are identical until the intrusion onset:
	// the same movement/traffic scenario is replayed with attacks injected
	// on top. Zero falls back to Seed.
	WorkloadSeed   int64
	Duration       float64 // seconds of virtual time
	SampleInterval float64 // audit snapshot period (5 s in the paper)

	Mobility mobility.Config
	Radio    radio.Config

	Routing RoutingKind
	AODV    aodv.Config
	DSR     dsr.Config
	OLSR    olsr.Config

	Transport       TransportKind
	TCP             traffic.TCPConfig
	Connections     int     // number of end-to-end connections (<=100 in the paper)
	Rate            float64 // packets/second per connection (0.25 in the paper)
	ConnStartWindow float64 // connection start times drawn uniformly from [0, w]

	// MonitorNodes lists nodes whose audit trail is retained; detection in
	// the paper is demonstrated on a single node.
	MonitorNodes []packet.NodeID

	// EventLog, when non-nil, receives an ns-2-style line for every audit
	// observation of the monitored nodes (debugging/tooling aid). Flushed
	// at the end of Run.
	EventLog io.Writer

	// AuditSink, when non-nil, is teed alongside each monitored node's
	// Collector and receives the same raw observation stream (e.g. a
	// trace.MetricsSink counting packet and route-event rates).
	AuditSink trace.Sink

	Attacks []attack.Spec

	// Faults schedules benign environmental faults (node crash/restart,
	// link flapping, noise bursts, audit sampler faults) alongside — or
	// instead of — the intrusions, for robustness studies.
	Faults []faults.Spec
}

// DefaultConfig returns the paper's experiment parameters: 1000 m x 1000 m
// random waypoint with 10 s pause and 20 m/s max speed, 50 nodes, up to
// 100 connections at rate 0.25, 10 000 s runs sampled every 5 s, detection
// on node 0.
func DefaultConfig() Config {
	return Config{
		Nodes:           50,
		Seed:            1,
		Duration:        10000,
		SampleInterval:  5,
		Mobility:        mobility.DefaultConfig(),
		Radio:           radio.DefaultConfig(),
		Routing:         AODV,
		AODV:            aodv.DefaultConfig(),
		DSR:             dsr.DefaultConfig(),
		OLSR:            olsr.DefaultConfig(),
		Transport:       CBR,
		TCP:             traffic.DefaultTCPConfig(),
		Connections:     100,
		Rate:            0.25,
		ConnStartWindow: 100,
		MonitorNodes:    []packet.NodeID{0},
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"duration", c.Duration},
		{"sample interval", c.SampleInterval},
		{"rate", c.Rate},
		{"connection start window", c.ConnStartWindow},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("netsim: %s %g must be finite", f.name, f.v)
		}
	}
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("netsim: need at least 2 nodes, have %d", c.Nodes)
	case c.Duration <= 0:
		return fmt.Errorf("netsim: duration %g must be positive", c.Duration)
	case c.SampleInterval <= 0:
		return fmt.Errorf("netsim: sample interval %g must be positive", c.SampleInterval)
	case c.Routing != AODV && c.Routing != DSR && c.Routing != OLSR:
		return fmt.Errorf("netsim: unknown routing kind %d", int(c.Routing))
	case c.Transport != CBR && c.Transport != TCP:
		return fmt.Errorf("netsim: unknown transport kind %d", int(c.Transport))
	case c.Connections < 0:
		return fmt.Errorf("netsim: connections %d must be non-negative", c.Connections)
	case c.Rate <= 0:
		return fmt.Errorf("netsim: rate %g must be positive", c.Rate)
	}
	if len(c.Attacks) > 0 {
		if err := (attack.Plan{Specs: c.Attacks}).Validate(c.Nodes); err != nil {
			return fmt.Errorf("netsim: %w", err)
		}
	}
	if len(c.Faults) > 0 {
		if err := (faults.Plan{Specs: c.Faults}).Validate(c.Nodes); err != nil {
			return fmt.Errorf("netsim: %w", err)
		}
	}
	if err := c.Mobility.Validate(); err != nil {
		return err
	}
	return c.Radio.Validate()
}

// Connection is one end-to-end flow of the workload.
type Connection struct {
	Flow     uint32
	Src, Dst packet.NodeID
	StartAt  float64
}

// Network is a fully wired scenario ready to Run.
type Network struct {
	cfg         Config
	eng         *sim.Engine
	medium      *radio.Medium
	nodes       []*Node
	collectors  map[packet.NodeID]*trace.Collector
	snapshots   map[packet.NodeID][]trace.Snapshot
	connections []Connection
	behaviors   []*attack.Behavior
	plan        attack.Plan
	faultPlan   faults.Plan
	eventLogs   []*trace.EventLog
}

// New builds a scenario from cfg.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.New(cfg.Seed)
	n := &Network{
		cfg:        cfg,
		eng:        eng,
		medium:     radio.NewMedium(eng, cfg.Radio),
		collectors: make(map[packet.NodeID]*trace.Collector, len(cfg.MonitorNodes)),
		snapshots:  make(map[packet.NodeID][]trace.Snapshot, len(cfg.MonitorNodes)),
	}
	monitored := make(map[packet.NodeID]bool, len(cfg.MonitorNodes))
	for _, id := range cfg.MonitorNodes {
		if int(id) < 0 || int(id) >= cfg.Nodes {
			return nil, fmt.Errorf("netsim: monitored node %d outside [0,%d)", id, cfg.Nodes)
		}
		monitored[id] = true
	}

	alloc := &packet.Allocator{}
	wseed := cfg.WorkloadSeed
	if wseed == 0 {
		wseed = cfg.Seed
	}
	for i := 0; i < cfg.Nodes; i++ {
		// Each node's trajectory draws from its own scenario-seeded stream
		// so movement replays identically across traces of one scenario,
		// independent of event interleaving.
		mobRng := rand.New(rand.NewSource(wseed + int64(i)*7919))
		node := &Node{
			eng:    eng,
			medium: n.medium,
			alloc:  alloc,
			flows:  make(map[uint32]traffic.SegmentHandler),
			mob:    mobility.NewWaypoint(cfg.Mobility, mobRng),
		}
		if monitored[packet.NodeID(i)] {
			col := trace.NewCollector()
			n.collectors[packet.NodeID(i)] = col
			sinks := []trace.Sink{col}
			if cfg.EventLog != nil {
				el := trace.NewEventLog(packet.NodeID(i), cfg.EventLog, eng.Now)
				n.eventLogs = append(n.eventLogs, el)
				sinks = append(sinks, el)
			}
			if cfg.AuditSink != nil {
				sinks = append(sinks, cfg.AuditSink)
			}
			if len(sinks) == 1 {
				node.sink = col
			} else {
				node.sink = trace.Tee{Sinks: sinks}
			}
		} else {
			node.sink = trace.Nop{}
		}
		switch cfg.Routing {
		case AODV:
			node.proto = aodv.New(node, cfg.AODV)
		case DSR:
			node.proto = dsr.New(node, cfg.DSR)
		case OLSR:
			node.proto = olsr.New(node, cfg.OLSR)
		}
		id := n.medium.Attach(node.mob, node, node.proto.Promiscuous())
		node.id = id
		n.nodes = append(n.nodes, node)
	}

	n.buildConnections()
	if err := n.installAttacks(); err != nil {
		return nil, err
	}
	n.installFaults()
	return n, nil
}

// buildConnections draws the workload: Connections random (src,dst) pairs.
// The first few connections are pinned to involve node 0 so the monitored
// node always participates in end-to-end traffic, as in the paper where
// statistics are reported from a traffic-carrying node.
func (n *Network) buildConnections() {
	seed := n.cfg.WorkloadSeed
	if seed == 0 {
		seed = n.cfg.Seed
	}
	rng := rand.New(rand.NewSource(seed))
	cfg := n.cfg
	flow := uint32(0)
	add := func(src, dst packet.NodeID) {
		flow++
		n.connections = append(n.connections, Connection{
			Flow:    flow,
			Src:     src,
			Dst:     dst,
			StartAt: rng.Float64() * cfg.ConnStartWindow,
		})
	}
	pinned := 0
	if cfg.Nodes > 2 && cfg.Connections >= 4 {
		// Two flows sourced at node 0, two terminating at node 0.
		for i := 0; i < 2; i++ {
			other := packet.NodeID(1 + rng.Intn(cfg.Nodes-1))
			add(0, other)
			other = packet.NodeID(1 + rng.Intn(cfg.Nodes-1))
			add(other, 0)
			pinned += 2
		}
	}
	for i := pinned; i < cfg.Connections; i++ {
		src := packet.NodeID(rng.Intn(cfg.Nodes))
		dst := packet.NodeID(rng.Intn(cfg.Nodes))
		for dst == src {
			dst = packet.NodeID(rng.Intn(cfg.Nodes))
		}
		add(src, dst)
	}
	for _, conn := range n.connections {
		src := n.nodes[conn.Src]
		dst := n.nodes[conn.Dst]
		switch cfg.Transport {
		case CBR:
			src.agents = append(src.agents, traffic.NewCBR(src, conn.Dst, conn.Flow, cfg.Rate, conn.StartAt))
			dst.agents = append(dst.agents, traffic.NewCBRSink(dst, conn.Flow))
		case TCP:
			tcp := cfg.TCP
			tcp.PacketRate = cfg.Rate
			src.agents = append(src.agents, traffic.NewTCPSender(src, conn.Dst, conn.Flow, tcp, conn.StartAt))
			dst.agents = append(dst.agents, traffic.NewTCPReceiver(dst, conn.Src, conn.Flow))
		}
	}
}

// installAttacks arms the configured intrusion specs.
func (n *Network) installAttacks() error {
	for _, spec := range n.cfg.Attacks {
		node := n.nodes[spec.Node]
		// Black holes poison routes to every station.
		if spec.Kind == attack.BlackHole {
			targets := make([]packet.NodeID, 0, len(n.nodes)-1)
			for _, other := range n.nodes {
				if other.id != spec.Node {
					targets = append(targets, other.id)
				}
			}
			switch p := node.proto.(type) {
			case *aodv.Router:
				p.SetBlackHoleTargets(targets)
			case *dsr.Router:
				p.SetBlackHoleVictims(targets)
			case *olsr.Router:
				p.SetBlackHoleTargets(targets)
			}
		}
		b, err := attack.Install(node, node.proto, spec)
		if err != nil {
			return err
		}
		n.behaviors = append(n.behaviors, b)
	}
	n.plan = attack.Plan{Specs: n.cfg.Attacks}
	return nil
}

// faultHost adapts the network runtime to the faults.Host contract.
type faultHost struct {
	n *Network
}

// At implements faults.Host.
func (h faultHost) At(t float64, fn func()) { h.n.eng.At(t, fn) }

// SetNodeDown implements faults.Host.
func (h faultHost) SetNodeDown(id packet.NodeID, down bool) { h.n.medium.SetDown(id, down) }

// RestartNode implements faults.Host: a cold reboot loses the route table
// and, on monitored nodes, the accumulated audit state.
func (h faultHost) RestartNode(id packet.NodeID) {
	h.n.nodes[id].proto.Reset()
	if col, ok := h.n.collectors[id]; ok {
		col.Reset()
	}
}

// SetLinkLoss implements faults.Host.
func (h faultHost) SetLinkLoss(a, b packet.NodeID, loss float64) {
	h.n.medium.SetLinkLoss(a, b, loss)
}

// AddNoise implements faults.Host.
func (h faultHost) AddNoise(delta float64) { h.n.medium.AddNoise(delta) }

// installFaults schedules the configured environmental faults. The config
// was validated in New, so the plan is structurally sound.
func (n *Network) installFaults() {
	n.faultPlan = faults.Plan{Specs: n.cfg.Faults}
	if n.faultPlan.Empty() {
		return
	}
	faults.Install(faultHost{n: n}, n.faultPlan)
}

// Run executes the scenario to completion.
func (n *Network) Run() error {
	for _, node := range n.nodes {
		node.proto.Start()
		for _, a := range node.agents {
			a.Start()
		}
	}
	// Audit sampler: snapshot each monitored node every SampleInterval.
	// Monitored nodes are visited in configuration order (not map order) so
	// any randomness consumed on the fault path keeps runs reproducible.
	n.eng.Tick(n.cfg.SampleInterval, 0, func() {
		now := n.eng.Now()
		for _, id := range n.cfg.MonitorNodes {
			col, ok := n.collectors[id]
			if !ok {
				continue
			}
			if !n.faultPlan.Empty() && n.faultPlan.HasSamplerFaults(id) {
				if n.faultPlan.CrashedAt(id, now) {
					continue // a crashed node writes no audit records
				}
				if j := n.faultPlan.SamplerJitterAt(id, now); j > 0 {
					// The sampler clock runs late by a bounded random
					// offset; clamp below the interval so records stay
					// ordered.
					delay := n.eng.Rand().Float64() * j
					if limit := 0.9 * n.cfg.SampleInterval; delay > limit {
						delay = limit
					}
					id := id
					n.eng.Schedule(delay, func() { n.sample(id, col) })
					continue
				}
			}
			n.sample(id, col)
		}
	})
	err := n.eng.Run(n.cfg.Duration)
	for _, el := range n.eventLogs {
		if ferr := el.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("netsim: flush event log: %w", ferr)
		}
	}
	return err
}

// sample takes one audit snapshot of a monitored node at the current
// virtual time, applying any scheduled sampler faults. A dropped record is
// lost on the audit path, not at the sampler: interval counters still reset
// and windows still slide, so the record after a gap covers one interval,
// not the whole gap.
func (n *Network) sample(id packet.NodeID, col *trace.Collector) {
	now := n.eng.Now()
	node := n.nodes[id]
	node.mob.Update(now)
	snap := col.Snapshot(now, node.mob.Speed(), node.proto.AvgRouteLength())
	if n.faultPlan.SamplerDropAt(id, now) {
		return
	}
	if n.faultPlan.SamplerTruncateAt(id, now) {
		snap.Truncate()
	}
	n.snapshots[id] = append(n.snapshots[id], snap)
}

// Snapshots returns the audit records of a monitored node in time order.
func (n *Network) Snapshots(id packet.NodeID) []trace.Snapshot { return n.snapshots[id] }

// Plan returns the scenario's intrusion schedule (ground truth).
func (n *Network) Plan() attack.Plan { return n.plan }

// FaultPlan returns the scenario's environmental-fault schedule.
func (n *Network) FaultPlan() faults.Plan { return n.faultPlan }

// Medium exposes the radio medium (for tests and diagnostics).
func (n *Network) Medium() *radio.Medium { return n.medium }

// Connections returns the generated workload.
func (n *Network) Connections() []Connection {
	return append([]Connection(nil), n.connections...)
}

// Engine exposes the scheduler (for tests).
func (n *Network) Engine() *sim.Engine { return n.eng }

// Node returns the runtime node with the given ID.
func (n *Network) Node(id packet.NodeID) *Node { return n.nodes[id] }

// Config returns the scenario configuration.
func (n *Network) Config() Config { return n.cfg }
