// Package dsr implements Dynamic Source Routing (Johnson & Maltz) at the
// fidelity the paper's experiments require: on-demand route discovery with
// accumulated route records, route replies from destinations or from
// intermediate caches, source-routed data forwarding, route maintenance
// with error reporting and salvaging, and promiscuous route learning
// (the "route notice" feature of Table 4).
//
// The black-hole attack exploits promiscuous learning: a fabricated ROUTE
// REQUEST carrying a one-hop source route from the victim through the
// attacker is overheard by neighbours, reversed, and cached as an
// apparently excellent (two-hop) route to the victim, displacing longer
// legitimate routes.
package dsr

import (
	"fmt"

	"crossfeature/internal/packet"
	"crossfeature/internal/routing"
	"crossfeature/internal/trace"
)

// Config holds DSR protocol constants.
type Config struct {
	RouteLifetime    float64 // cached route expiry, seconds
	DiscoveryTimeout float64 // RREP wait before retrying, seconds
	DiscoveryRetries int     // RREQ retries before giving up
	MaxBuffer        int     // buffered data packets per destination
	CacheWays        int     // cached routes kept per destination
}

// DefaultConfig mirrors common ns-2 DSR settings.
func DefaultConfig() Config {
	return Config{
		RouteLifetime:    300,
		DiscoveryTimeout: 1.0,
		DiscoveryRetries: 3,
		MaxBuffer:        64,
		CacheWays:        2,
	}
}

// rreqHeader is the ROUTE REQUEST body. Record accumulates the traversed
// path starting at the originator.
type rreqHeader struct {
	Orig   packet.NodeID
	Dst    packet.NodeID
	ReqID  uint32
	Record []packet.NodeID
}

// rrepHeader carries the complete discovered route Orig..Dst.
type rrepHeader struct {
	Orig  packet.NodeID
	Dst   packet.NodeID
	Route []packet.NodeID
}

// rerrHeader reports a broken link back to a packet source.
type rerrHeader struct {
	From, To packet.NodeID // the broken directed link
	Orig     packet.NodeID // who is being told
	Route    []packet.NodeID
	Index    int
}

// srcRoute is the source-route header on data packets: the full path
// (including source and destination) and the index of the current holder.
type srcRoute struct {
	Path  []packet.NodeID
	Index int
}

// cachedRoute is one cache entry: the hop sequence from this node
// (exclusive) to the destination (inclusive).
type cachedRoute struct {
	path    []packet.NodeID
	learned float64
}

// discovery tracks an in-flight route discovery.
type discovery struct {
	retries int
	timer   interface{ Cancel() bool }
}

// Router is one DSR instance.
type Router struct {
	env routing.Env
	cfg Config

	reqID    uint32
	cache    map[packet.NodeID][]cachedRoute
	seenRREQ map[rreqKey]struct{}
	buffer   map[packet.NodeID][]*packet.Packet
	pending  map[packet.NodeID]*discovery

	dropFilter routing.DropFilter
	bhVictims  []packet.NodeID

	// scratch holds candidate routes built from overheard and received
	// headers. Most are already cached and only refresh an entry, so they
	// are built here rather than allocated; addRoute copies what it keeps.
	scratch []packet.NodeID

	dataOriginated uint64
	dataDelivered  uint64
	dataForwarded  uint64
	dataDropped    uint64
	salvaged       uint64
}

type rreqKey struct {
	orig packet.NodeID
	id   uint32
}

// New creates a DSR router bound to env.
func New(env routing.Env, cfg Config) *Router {
	return &Router{
		env:      env,
		cfg:      cfg,
		cache:    make(map[packet.NodeID][]cachedRoute),
		seenRREQ: make(map[rreqKey]struct{}),
		buffer:   make(map[packet.NodeID][]*packet.Packet),
		pending:  make(map[packet.NodeID]*discovery),
	}
}

var (
	_ routing.Protocol            = (*Router)(nil)
	_ routing.BlackHoleAdvertiser = (*Router)(nil)
)

// Name implements routing.Protocol.
func (r *Router) Name() string { return "DSR" }

// Promiscuous implements routing.Protocol: DSR overhears for route learning.
func (r *Router) Promiscuous() bool { return true }

// SetDropFilter implements routing.Protocol.
func (r *Router) SetDropFilter(f routing.DropFilter) { r.dropFilter = f }

// Start implements routing.Protocol; DSR has no periodic beacons.
func (r *Router) Start() {}

// Stats reports cumulative data-plane counters.
func (r *Router) Stats() (originated, delivered, forwarded, dropped, salvaged uint64) {
	return r.dataOriginated, r.dataDelivered, r.dataForwarded, r.dataDropped, r.salvaged
}

// Reset implements routing.Protocol: discard the route cache, RREQ dedup
// set, buffered packets and in-flight discoveries, as after a crash and
// cold restart. Cumulative stats survive.
func (r *Router) Reset() {
	for _, d := range r.pending {
		if d.timer != nil {
			d.timer.Cancel()
		}
	}
	r.cache = make(map[packet.NodeID][]cachedRoute)
	r.seenRREQ = make(map[rreqKey]struct{})
	r.buffer = make(map[packet.NodeID][]*packet.Packet)
	r.pending = make(map[packet.NodeID]*discovery)
}

// AvgRouteLength implements routing.Protocol: the mean length of the best
// live cached route per destination.
func (r *Router) AvgRouteLength() float64 {
	var sum, n float64
	for dst := range r.cache {
		if p := r.bestRoute(dst); p != nil {
			sum += float64(len(p))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// --- route cache ---------------------------------------------------------------

// origin distinguishes how a route was learned, mapping onto the paper's
// route-event taxonomy.
type origin int

const (
	originDiscovery origin = iota + 1 // from our own ROUTE REPLY
	originNotice                      // eavesdropped / observed in transit
)

// addRoute inserts path (hops from this node, destination last) into the
// cache. Shorter routes displace longer ones; the cache keeps CacheWays
// entries per destination. path may be shared or scratch: a new entry
// stores a copy.
func (r *Router) addRoute(path []packet.NodeID, how origin) {
	if len(path) == 0 {
		return
	}
	dst := path[len(path)-1]
	if dst == r.env.ID() {
		return
	}
	for _, n := range path[:len(path)-1] {
		if n == r.env.ID() {
			return // would loop through ourselves
		}
	}
	now := r.env.Now()
	entries := r.pruneExpired(dst)
	for i := range entries {
		if samePath(entries[i].path, path) {
			entries[i].learned = now
			r.cache[dst] = entries
			return
		}
	}
	cp := append([]packet.NodeID(nil), path...)
	entries = append(entries, cachedRoute{path: cp, learned: now})
	// Keep the best CacheWays entries, preferring freshness: in a mobile
	// network a recently observed route is more likely to still exist than
	// an old short one, and ns-2's DSR cache behaves the same way. This
	// freshness preference is also what lets the black hole's repeated
	// bogus advertisements keep displacing legitimate routes (the paper's
	// "mistakenly assume the reversed source route could be a better
	// route").
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && better(entries[j], entries[j-1]); j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	if len(entries) > r.cfg.CacheWays {
		entries = entries[:r.cfg.CacheWays]
	}
	r.cache[dst] = entries
	switch how {
	case originDiscovery:
		r.env.Audit().RecordRoute(trace.RouteAdd)
	case originNotice:
		r.env.Audit().RecordRoute(trace.RouteNotice)
	}
}

func better(a, b cachedRoute) bool {
	if a.learned != b.learned {
		return a.learned > b.learned
	}
	return len(a.path) < len(b.path)
}

func samePath(a, b []packet.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pruneExpired drops stale entries for dst and returns the survivors.
func (r *Router) pruneExpired(dst packet.NodeID) []cachedRoute {
	entries := r.cache[dst]
	cutoff := r.env.Now() - r.cfg.RouteLifetime
	out := entries[:0]
	for _, e := range entries {
		if e.learned >= cutoff {
			out = append(out, e)
		} else {
			r.env.Audit().RecordRoute(trace.RouteRemoval)
		}
	}
	if len(out) == 0 {
		delete(r.cache, dst)
		return nil
	}
	r.cache[dst] = out
	return out
}

// bestRoute returns the preferred live route to dst, or nil.
func (r *Router) bestRoute(dst packet.NodeID) []packet.NodeID {
	entries := r.pruneExpired(dst)
	if len(entries) == 0 {
		return nil
	}
	return entries[0].path
}

// removeLink evicts every cached route using the directed link from->to.
func (r *Router) removeLink(from, to packet.NodeID) {
	for dst, entries := range r.cache {
		out := entries[:0]
		for _, e := range entries {
			if routeUsesLink(r.env.ID(), e.path, from, to) {
				r.env.Audit().RecordRoute(trace.RouteRemoval)
				continue
			}
			out = append(out, e)
		}
		if len(out) == 0 {
			delete(r.cache, dst)
		} else {
			r.cache[dst] = out
		}
	}
}

// routeUsesLink reports whether the path (owned by owner) traverses the
// directed link from->to.
func routeUsesLink(owner packet.NodeID, path []packet.NodeID, from, to packet.NodeID) bool {
	prev := owner
	for _, n := range path {
		if prev == from && n == to {
			return true
		}
		prev = n
	}
	return false
}

// --- data plane ------------------------------------------------------------------

// SendData implements routing.Protocol.
func (r *Router) SendData(p *packet.Packet) {
	r.dataOriginated++
	r.env.Audit().RecordPacket(r.env.Now(), packet.Data, trace.Sent)
	if p.Dst == r.env.ID() {
		r.deliver(p)
		return
	}
	if path := r.bestRoute(p.Dst); path != nil {
		r.env.Audit().RecordRoute(trace.RouteFind)
		r.sendAlong(p, path)
		return
	}
	r.enqueue(p)
	r.startDiscovery(p.Dst)
}

// sendAlong attaches the source route and transmits to the first hop.
func (r *Router) sendAlong(p *packet.Packet, path []packet.NodeID) {
	full := make([]packet.NodeID, 0, len(path)+1)
	full = append(full, r.env.ID())
	full = append(full, path...)
	p.Header = srcRoute{Path: full, Index: 0}
	next := full[1]
	r.env.Unicast(next, p, func() { r.linkBreak(p, full, 0) })
}

// enqueue buffers a packet awaiting discovery.
func (r *Router) enqueue(p *packet.Packet) {
	q := r.buffer[p.Dst]
	if len(q) >= r.cfg.MaxBuffer {
		r.dropData(q[0])
		q = q[1:]
	}
	r.buffer[p.Dst] = append(q, p)
}

func (r *Router) deliver(p *packet.Packet) {
	if r.dropFilter != nil && r.dropFilter(p) {
		r.dropData(p)
		return
	}
	r.dataDelivered++
	r.env.Audit().RecordPacket(r.env.Now(), packet.Data, trace.Received)
	r.env.DeliverUp(p)
}

func (r *Router) dropData(p *packet.Packet) {
	r.dataDropped++
	r.env.Audit().RecordPacket(r.env.Now(), packet.Data, trace.Dropped)
}

// forwardData relays a source-routed data packet.
func (r *Router) forwardData(p *packet.Packet) {
	hdr, ok := p.Header.(srcRoute)
	if !ok {
		return
	}
	if r.dropFilter != nil && r.dropFilter(p) {
		r.dropData(p)
		return
	}
	if p.TTL <= 0 {
		r.dropData(p)
		return
	}
	// Advance the pointer past ourselves.
	idx := hdr.Index + 1
	if idx >= len(hdr.Path) || hdr.Path[idx] != r.env.ID() || idx+1 >= len(hdr.Path) {
		r.dropData(p)
		return
	}
	// In-transit learning: the remaining path is a route to the destination.
	r.addRoute(hdr.Path[idx+1:], originNotice)
	fwd := p.Clone()
	fwd.TTL--
	fwd.Hops++
	h2 := hdr
	h2.Index = idx
	fwd.Header = h2
	r.dataForwarded++
	r.env.Audit().RecordPacket(r.env.Now(), packet.Data, trace.Forwarded)
	next := hdr.Path[idx+1]
	r.env.Unicast(next, fwd, func() { r.linkBreak(fwd, hdr.Path, idx) })
}

// linkBreak handles route maintenance after a MAC failure while holding
// data packet p at position idx of path (path[idx] is this node, the
// failed hop is path[idx+1]).
func (r *Router) linkBreak(p *packet.Packet, path []packet.NodeID, idx int) {
	if idx+1 >= len(path) {
		r.dropData(p)
		return
	}
	from, to := path[idx], path[idx+1]
	r.removeLink(from, to)
	r.sendRERR(path, idx, from, to)

	// Salvage: try an alternative cached route to the destination.
	r.env.Audit().RecordRoute(trace.RouteRepair)
	dst := path[len(path)-1]
	if alt := r.bestRoute(dst); alt != nil && !routeUsesLink(r.env.ID(), alt, from, to) {
		r.salvaged++
		r.sendAlong(p, alt)
		return
	}
	if p.Src == r.env.ID() {
		// Source: rediscover and retry.
		r.enqueue(p)
		r.startDiscovery(p.Dst)
		return
	}
	r.dropData(p)
}

// sendRERR reports a broken link back toward the packet source along the
// reversed traversed prefix.
func (r *Router) sendRERR(path []packet.NodeID, idx int, from, to packet.NodeID) {
	orig := path[0]
	if orig == r.env.ID() {
		return // we are the source; we already know
	}
	// Reverse prefix: path[idx], path[idx-1], ..., path[0].
	rev := make([]packet.NodeID, 0, idx+1)
	for i := idx; i >= 0; i-- {
		rev = append(rev, path[i])
	}
	p := r.env.NewPacket(packet.RouteError, r.env.ID(), orig, packet.ControlSize)
	p.Header = rerrHeader{From: from, To: to, Orig: orig, Route: rev, Index: 0}
	r.env.Audit().RecordPacket(r.env.Now(), packet.RouteError, trace.Sent)
	if len(rev) < 2 {
		return
	}
	next := rev[1]
	r.env.Unicast(next, p, nil) // best-effort error delivery
}

// --- discovery ------------------------------------------------------------------

func (r *Router) startDiscovery(dst packet.NodeID) {
	if _, ok := r.pending[dst]; ok {
		return
	}
	d := &discovery{}
	r.pending[dst] = d
	r.sendRREQ(dst, d)
}

func (r *Router) sendRREQ(dst packet.NodeID, d *discovery) {
	r.reqID++
	p := r.env.NewPacket(packet.RouteRequest, r.env.ID(), packet.Broadcast, packet.ControlSize)
	p.Header = rreqHeader{
		Orig:   r.env.ID(),
		Dst:    dst,
		ReqID:  r.reqID,
		Record: []packet.NodeID{r.env.ID()},
	}
	r.seenRREQ[rreqKey{orig: r.env.ID(), id: r.reqID}] = struct{}{}
	r.env.Audit().RecordPacket(r.env.Now(), packet.RouteRequest, trace.Sent)
	r.env.Broadcast(p)

	timeout := r.cfg.DiscoveryTimeout * float64(int(1)<<uint(d.retries))
	d.timer = r.env.AfterFunc(timeout, func() { r.discoveryTimeout(dst) })
}

func (r *Router) discoveryTimeout(dst packet.NodeID) {
	d, ok := r.pending[dst]
	if !ok {
		return
	}
	if r.bestRoute(dst) != nil {
		r.finishDiscovery(dst)
		return
	}
	d.retries++
	if d.retries > r.cfg.DiscoveryRetries {
		delete(r.pending, dst)
		for _, p := range r.buffer[dst] {
			r.dropData(p)
		}
		delete(r.buffer, dst)
		return
	}
	r.sendRREQ(dst, d)
}

func (r *Router) finishDiscovery(dst packet.NodeID) {
	if d, ok := r.pending[dst]; ok {
		if d.timer != nil {
			d.timer.Cancel()
		}
		delete(r.pending, dst)
	}
	q := r.buffer[dst]
	delete(r.buffer, dst)
	for _, p := range q {
		if path := r.bestRoute(dst); path != nil {
			r.sendAlong(p, path)
		} else {
			r.dropData(p)
		}
	}
}

// --- control plane -----------------------------------------------------------------

// HandleFrame implements routing.Protocol.
func (r *Router) HandleFrame(p *packet.Packet, from packet.NodeID) {
	switch p.Type {
	case packet.Data:
		hdr, ok := p.Header.(srcRoute)
		if ok && len(hdr.Path) > 0 && hdr.Path[len(hdr.Path)-1] == r.env.ID() &&
			hdr.Index+2 == len(hdr.Path) {
			r.deliver(p)
			return
		}
		if !ok && p.Dst == r.env.ID() {
			r.deliver(p)
			return
		}
		r.forwardData(p)
	case packet.RouteRequest:
		r.handleRREQ(p, from)
	case packet.RouteReply:
		r.handleRREP(p, from)
	case packet.RouteError:
		r.handleRERR(p, from)
	}
}

func (r *Router) handleRREQ(p *packet.Packet, from packet.NodeID) {
	hdr, ok := p.Header.(rreqHeader)
	if !ok {
		return
	}
	r.env.Audit().RecordPacket(r.env.Now(), packet.RouteRequest, trace.Received)
	me := r.env.ID()
	if hdr.Orig == me {
		return
	}
	key := rreqKey{orig: hdr.Orig, id: hdr.ReqID}
	if _, seen := r.seenRREQ[key]; seen {
		return
	}
	r.seenRREQ[key] = struct{}{}
	for _, n := range hdr.Record {
		if n == me {
			return // already in the record: loop
		}
	}
	// Learn the reverse route to the originator from the accumulated record.
	r.learnReverse(hdr.Record, from)

	if hdr.Dst == me {
		route := append(append([]packet.NodeID(nil), hdr.Record...), me)
		r.sendRREP(hdr.Orig, hdr.Dst, route)
		return
	}
	if cached := r.bestRoute(hdr.Dst); cached != nil {
		// Reply from cache: record so far + us + cached tail, if loop-free.
		route := append(append([]packet.NodeID(nil), hdr.Record...), me)
		if tail, ok2 := loopFreeConcat(route, cached); ok2 {
			r.env.Audit().RecordRoute(trace.RouteFind)
			r.sendRREP(hdr.Orig, hdr.Dst, tail)
			return
		}
	}
	if p.TTL <= 0 {
		return
	}
	fwd := p.Clone()
	fwd.TTL--
	fwd.Hops++
	h2 := hdr
	h2.Record = append(append([]packet.NodeID(nil), hdr.Record...), me)
	fwd.Header = h2
	r.env.Audit().RecordPacket(r.env.Now(), packet.RouteRequest, trace.Forwarded)
	r.env.Broadcast(fwd)
}

// reverseTo appends to dst this node's route to the record's originator:
// the transmitter first, then the record reversed down to the originator.
// It returns nil if the record passes through this node.
func reverseTo(dst, record []packet.NodeID, me, from packet.NodeID) []packet.NodeID {
	if len(record) == 0 || record[len(record)-1] != from {
		dst = append(dst, from)
	}
	for i := len(record) - 1; i >= 0; i-- {
		if record[i] == me {
			return nil
		}
		dst = append(dst, record[i])
	}
	return dst
}

// learnReverse offers the reversed record of a ROUTE REQUEST heard from
// from to the cache, built in the scratch buffer.
func (r *Router) learnReverse(record []packet.NodeID, from packet.NodeID) {
	if path := reverseTo(r.scratch[:0], record, r.env.ID(), from); path != nil {
		r.scratch = path
		r.addRoute(path, originNotice)
	}
}

// learnVia offers the route from, tail... to the cache, built in the
// scratch buffer.
func (r *Router) learnVia(from packet.NodeID, tail []packet.NodeID) {
	r.scratch = append(append(r.scratch[:0], from), tail...)
	r.addRoute(r.scratch, originNotice)
}

// loopFreeConcat appends tail to head if the result visits no node twice.
// Routes are a few hops long, so linear scans beat building a set.
func loopFreeConcat(head, tail []packet.NodeID) ([]packet.NodeID, bool) {
	for i, n := range tail {
		if indexOf(head, n) >= 0 || indexOf(tail[:i], n) >= 0 {
			return nil, false
		}
	}
	out := make([]packet.NodeID, 0, len(head)+len(tail))
	return append(append(out, head...), tail...), true
}

// sendRREP unicasts a reply carrying the full route back to the originator
// along the reversed prefix of that route up to this node.
func (r *Router) sendRREP(orig, dst packet.NodeID, route []packet.NodeID) {
	me := r.env.ID()
	idx := indexOf(route, me)
	if idx < 1 {
		return
	}
	p := r.env.NewPacket(packet.RouteReply, me, orig, packet.ControlSize)
	p.Header = rrepHeader{Orig: orig, Dst: dst, Route: route}
	r.env.Audit().RecordPacket(r.env.Now(), packet.RouteReply, trace.Sent)
	next := route[idx-1]
	r.env.Unicast(next, p, nil)
}

func indexOf(route []packet.NodeID, n packet.NodeID) int {
	for i, x := range route {
		if x == n {
			return i
		}
	}
	return -1
}

func (r *Router) handleRREP(p *packet.Packet, from packet.NodeID) {
	hdr, ok := p.Header.(rrepHeader)
	if !ok {
		return
	}
	r.env.Audit().RecordPacket(r.env.Now(), packet.RouteReply, trace.Received)
	me := r.env.ID()
	idx := indexOf(hdr.Route, me)
	if idx < 0 {
		return
	}
	// Learn the downstream portion of the carried route.
	if idx+1 < len(hdr.Route) {
		how := originNotice
		if hdr.Orig == me {
			how = originDiscovery
		}
		r.addRoute(hdr.Route[idx+1:], how)
	}
	if hdr.Orig == me {
		r.finishDiscovery(hdr.Dst)
		return
	}
	if idx == 0 || p.TTL <= 0 {
		r.env.Audit().RecordPacket(r.env.Now(), packet.RouteReply, trace.Dropped)
		return
	}
	fwd := p.Clone()
	fwd.TTL--
	fwd.Hops++
	r.env.Audit().RecordPacket(r.env.Now(), packet.RouteReply, trace.Forwarded)
	next := hdr.Route[idx-1]
	r.env.Unicast(next, fwd, nil)
}

func (r *Router) handleRERR(p *packet.Packet, from packet.NodeID) {
	hdr, ok := p.Header.(rerrHeader)
	if !ok {
		return
	}
	r.env.Audit().RecordPacket(r.env.Now(), packet.RouteError, trace.Received)
	r.removeLink(hdr.From, hdr.To)
	me := r.env.ID()
	if hdr.Orig == me {
		return
	}
	// Relay toward the originator along the carried reverse route.
	idx := hdr.Index + 1
	if idx >= len(hdr.Route) || hdr.Route[idx] != me || idx+1 >= len(hdr.Route) || p.TTL <= 0 {
		return
	}
	fwd := p.Clone()
	fwd.TTL--
	fwd.Hops++
	h2 := hdr
	h2.Index = idx
	fwd.Header = h2
	r.env.Audit().RecordPacket(r.env.Now(), packet.RouteError, trace.Forwarded)
	r.env.Unicast(hdr.Route[idx+1], fwd, nil)
}

// --- promiscuous learning ------------------------------------------------------------

// OverhearFrame implements routing.Protocol: learn routes from frames
// addressed to other nodes. This is both DSR's optimisation and the black
// hole's infection vector.
func (r *Router) OverhearFrame(p *packet.Packet, from packet.NodeID) {
	me := r.env.ID()
	switch p.Type {
	case packet.RouteRequest:
		hdr, ok := p.Header.(rreqHeader)
		if !ok || hdr.Orig == me {
			return
		}
		// Reverse the overheard record: the transmitter is our neighbour.
		r.learnReverse(hdr.Record, from)
	case packet.RouteReply:
		hdr, ok := p.Header.(rrepHeader)
		if !ok {
			return
		}
		idx := indexOf(hdr.Route, from)
		if idx >= 0 && idx+1 < len(hdr.Route) && indexOf(hdr.Route[idx:], me) < 0 {
			r.learnVia(from, hdr.Route[idx+1:])
		}
	case packet.Data:
		hdr, ok := p.Header.(srcRoute)
		if !ok {
			return
		}
		idx := indexOf(hdr.Path, from)
		if idx >= 0 && idx+1 < len(hdr.Path) && indexOf(hdr.Path[idx:], me) < 0 {
			r.learnVia(from, hdr.Path[idx+1:])
		}
	}
}

// --- black hole -----------------------------------------------------------------------

// SetBlackHoleVictims configures the sources impersonated by
// AdvertiseBlackHole.
func (r *Router) SetBlackHoleVictims(victims []packet.NodeID) {
	r.bhVictims = append([]packet.NodeID(nil), victims...)
}

// AdvertiseBlackHole implements the paper's DSR black-hole script: for each
// victim source, broadcast a bogus ROUTE REQUEST whose accumulated record
// is the one-hop route [victim, attacker], as if the attacker were the
// victim's immediate neighbour forwarding its first request. Overhearing
// neighbours reverse the record and cache a two-hop route to the victim via
// the attacker, overriding longer legitimate routes.
func (r *Router) AdvertiseBlackHole() {
	me := r.env.ID()
	victims := r.bhVictims
	if len(victims) == 0 {
		for dst := range r.cache {
			victims = append(victims, dst)
		}
	}
	for _, v := range victims {
		if v == me {
			continue
		}
		r.reqID++
		p := r.env.NewPacket(packet.RouteRequest, me, packet.Broadcast, packet.ControlSize)
		p.Header = rreqHeader{
			Orig:   v,
			Dst:    r.pickDecoyDst(v),
			ReqID:  r.reqID,
			Record: []packet.NodeID{v, me},
		}
		r.env.Audit().RecordPacket(r.env.Now(), packet.RouteRequest, trace.Sent)
		r.env.Broadcast(p)
	}
}

// FloodBogusDiscovery implements routing.StormFlooder: a network-wide
// ROUTE REQUEST for a destination that does not exist.
func (r *Router) FloodBogusDiscovery() {
	r.reqID++
	p := r.env.NewPacket(packet.RouteRequest, r.env.ID(), packet.Broadcast, packet.ControlSize)
	p.Header = rreqHeader{
		Orig:   r.env.ID(),
		Dst:    bogusDst,
		ReqID:  r.reqID,
		Record: []packet.NodeID{r.env.ID()},
	}
	r.seenRREQ[rreqKey{orig: r.env.ID(), id: r.reqID}] = struct{}{}
	r.env.Audit().RecordPacket(r.env.Now(), packet.RouteRequest, trace.Sent)
	r.env.Broadcast(p)
}

// bogusDst is an address no real node holds.
const bogusDst = packet.NodeID(1 << 30)

// pickDecoyDst chooses a plausible destination for a bogus request.
func (r *Router) pickDecoyDst(victim packet.NodeID) packet.NodeID {
	for _, v := range r.bhVictims {
		if v != victim && v != r.env.ID() {
			return v
		}
	}
	return victim
}

// String aids debugging.
func (r *Router) String() string {
	return fmt.Sprintf("DSR(node=%d, cached=%d)", r.env.ID(), len(r.cache))
}
