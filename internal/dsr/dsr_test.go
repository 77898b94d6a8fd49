package dsr

import (
	"testing"

	"crossfeature/internal/geom"
	"crossfeature/internal/packet"
	"crossfeature/internal/trace"
)

func TestDiscoveryAndDeliveryOverThreeHops(t *testing.T) {
	net := newLine(t, 4, DefaultConfig())
	net.start()
	net.eng.At(1, func() { net.sendData(0, 3) })
	net.run(t, 10)
	if got := len(net.hosts[3].delivered); got != 1 {
		t.Fatalf("destination delivered %d packets, want 1", got)
	}
	// The source's cache must hold the full hop sequence 1,2,3.
	path := net.hosts[0].router.bestRoute(net.hosts[3].id)
	want := []packet.NodeID{net.hosts[1].id, net.hosts[2].id, net.hosts[3].id}
	if !samePath(path, want) {
		t.Errorf("cached route = %v, want %v", path, want)
	}
}

func TestRouteEventsAddThenFind(t *testing.T) {
	net := newLine(t, 3, DefaultConfig())
	net.start()
	net.eng.At(1, func() { net.sendData(0, 2) })
	net.eng.At(5, func() { net.sendData(0, 2) })
	net.run(t, 10)
	snap := net.hosts[0].collector.Snapshot(10, 0, 0)
	if snap.RouteCounts[trace.RouteAdd] == 0 {
		t.Error("own discovery should record RouteAdd")
	}
	if snap.RouteCounts[trace.RouteFind] == 0 {
		t.Error("second send should hit the cache (RouteFind)")
	}
}

func TestPromiscuousLearningProducesNotices(t *testing.T) {
	net := newLine(t, 4, DefaultConfig())
	net.start()
	// Traffic 0->3 flows past nodes 1 and 2; bystanders and intermediates
	// learn routes they never asked for.
	net.eng.At(1, func() { net.sendData(0, 3) })
	net.run(t, 10)
	snap := net.hosts[1].collector.Snapshot(10, 0, 0)
	if snap.RouteCounts[trace.RouteNotice] == 0 {
		t.Error("intermediate node recorded no RouteNotice events")
	}
}

func TestCachedReplyFromIntermediate(t *testing.T) {
	net := newLine(t, 4, DefaultConfig())
	// Prime node 1's cache directly so the reply can only come from it
	// (prior traffic would also teach node 0 promiscuously).
	net.hosts[1].router.addRoute(
		[]packet.NodeID{net.hosts[2].id, net.hosts[3].id}, originDiscovery)
	net.start()
	net.eng.At(1, func() { net.sendData(0, 3) })
	net.run(t, 10)
	if got := len(net.hosts[3].delivered); got != 1 {
		t.Fatalf("delivered %d of 1", got)
	}
	snap := net.hosts[1].collector.Snapshot(10, 0, 0)
	if snap.RouteCounts[trace.RouteFind] == 0 {
		t.Error("no cached reply recorded at the intermediate")
	}
	// Node 3 must never have seen the RREQ: the cache answered first.
	snap3 := net.hosts[3].collector.Snapshot(10, 0, 0)
	if snap3.Traffic[trace.ClassRREQ][trace.Received][2].Count != 0 {
		t.Error("flood reached the destination despite the cached reply")
	}
}

func TestPromiscuousLearningAvoidsDiscovery(t *testing.T) {
	net := newLine(t, 4, DefaultConfig())
	net.start()
	// Node 0 overhears node 1's source-routed traffic to 3 and learns the
	// route without ever asking.
	net.eng.At(1, func() { net.sendData(1, 3) })
	net.eng.At(4, func() { net.sendData(0, 3) })
	net.run(t, 10)
	if got := len(net.hosts[3].delivered); got != 2 {
		t.Fatalf("delivered %d of 2", got)
	}
	snap := net.hosts[0].collector.Snapshot(10, 0, 0)
	if snap.Traffic[trace.ClassRREQ][trace.Sent][2].Count != 0 {
		t.Error("node 0 flooded a discovery despite an eavesdropped route")
	}
	if snap.RouteCounts[trace.RouteFind] == 0 {
		t.Error("node 0's send should have been a cache hit")
	}
}

func TestDataBufferedDuringDiscovery(t *testing.T) {
	net := newLine(t, 3, DefaultConfig())
	net.start()
	net.eng.At(1, func() {
		for i := 0; i < 5; i++ {
			net.sendData(0, 2)
		}
	})
	net.run(t, 10)
	if got := len(net.hosts[2].delivered); got != 5 {
		t.Errorf("delivered %d of 5 buffered packets", got)
	}
}

func TestUnreachableDestinationDropsAfterRetries(t *testing.T) {
	net := newLine(t, 4, DefaultConfig())
	net.hosts[3].mob.pos = geom.Vec{X: 10000}
	net.start()
	net.eng.At(1, func() { net.sendData(0, 3) })
	net.run(t, 60)
	if len(net.hosts[3].delivered) != 0 {
		t.Fatal("partitioned destination received data")
	}
	_, _, _, dropped, _ := net.hosts[0].router.Stats()
	if dropped == 0 {
		t.Error("abandoned discovery did not drop the buffered packet")
	}
}

func TestLinkBreakSalvageOrRediscovery(t *testing.T) {
	net := newLine(t, 4, DefaultConfig())
	net.start()
	net.eng.At(1, func() { net.sendData(0, 3) })
	net.run(t, 5)
	if len(net.hosts[3].delivered) != 1 {
		t.Fatal("initial delivery failed")
	}
	// Move node 2 away: the 1->2 link dies; a later packet must still
	// arrive via rediscovery... but with a line topology there is no
	// alternative, so instead verify maintenance events fire.
	net.hosts[2].mob.pos = geom.Vec{Y: 10000}
	net.eng.At(6, func() { net.sendData(0, 3) })
	net.run(t, 30)
	snap := net.hosts[1].collector.Snapshot(30, 0, 0)
	if snap.RouteCounts[trace.RouteRemoval] == 0 {
		t.Error("break did not remove cached routes at the forwarder")
	}
	if snap.RouteCounts[trace.RouteRepair] == 0 {
		t.Error("break did not record a repair attempt")
	}
	if snap.Traffic[trace.ClassRERR][trace.Sent][2].Count == 0 {
		t.Error("no RERR originated at the break point")
	}
}

func TestSalvageViaAlternateRoute(t *testing.T) {
	// 0 -> 1 -> 3 breaks at the 1->3 link; node 1 holds an alternate
	// cached route through 2 and must salvage the packet onto it.
	cfg := DefaultConfig()
	net := newLine(t, 4, cfg)
	net.hosts[0].mob.pos = geom.Vec{X: 0, Y: 0}
	net.hosts[1].mob.pos = geom.Vec{X: 200, Y: 0}
	net.hosts[2].mob.pos = geom.Vec{X: 200, Y: 150}
	net.hosts[3].mob.pos = geom.Vec{X: 320, Y: 220} // in range of 2 only
	// Source believes 3 is reachable via 1 directly; node 1 knows better.
	net.hosts[0].router.addRoute(
		[]packet.NodeID{net.hosts[1].id, net.hosts[3].id}, originDiscovery)
	net.hosts[1].router.addRoute(
		[]packet.NodeID{net.hosts[2].id, net.hosts[3].id}, originDiscovery)
	net.start()
	net.eng.At(1, func() { net.sendData(0, 3) })
	net.run(t, 10)
	if got := len(net.hosts[3].delivered); got != 1 {
		t.Fatalf("delivered %d, want 1 via salvage", got)
	}
	_, _, _, _, salvaged := net.hosts[1].router.Stats()
	if salvaged != 1 {
		t.Errorf("salvage counter = %d, want 1", salvaged)
	}
	snap := net.hosts[1].collector.Snapshot(10, 0, 0)
	if snap.RouteCounts[trace.RouteRepair] == 0 {
		t.Error("salvage did not record RouteRepair")
	}
}

func TestDropFilterRecordsAuditDrop(t *testing.T) {
	net := newLine(t, 3, DefaultConfig())
	net.hosts[1].router.SetDropFilter(func(p *packet.Packet) bool {
		return p.Type == packet.Data
	})
	net.start()
	net.eng.At(1, func() { net.sendData(0, 2) })
	net.run(t, 10)
	if len(net.hosts[2].delivered) != 0 {
		t.Error("drop filter did not discard relayed data")
	}
	snap := net.hosts[1].collector.Snapshot(10, 0, 0)
	if snap.Traffic[trace.ClassRouteAll][trace.Dropped][2].Count == 0 {
		t.Error("malicious drop not recorded")
	}
}

func TestBlackHolePoisonsNeighborCaches(t *testing.T) {
	net := newLine(t, 4, DefaultConfig())
	attacker := net.hosts[2]
	victims := []packet.NodeID{net.hosts[0].id, net.hosts[1].id, net.hosts[3].id}
	attacker.router.SetBlackHoleVictims(victims)
	net.start()
	// Legitimate route 3 -> 0 first.
	net.eng.At(1, func() { net.sendData(3, 0) })
	net.run(t, 5)
	if len(net.hosts[0].delivered) != 1 {
		t.Fatal("baseline delivery failed")
	}
	net.eng.At(6, func() { attacker.router.AdvertiseBlackHole() })
	net.run(t, 8)
	// Node 3 (attacker's neighbour) must now prefer the bogus 2-hop route
	// to node 0 via the attacker.
	path := net.hosts[3].router.bestRoute(net.hosts[0].id)
	if len(path) != 2 || path[0] != attacker.id {
		t.Errorf("node 3 best route to 0 = %v, want [%d 0] via attacker", path, attacker.id)
	}
}

func TestRERRRemovesRoutesUsingBrokenLink(t *testing.T) {
	cfg := DefaultConfig()
	net := newLine(t, 3, cfg)
	r := net.hosts[0].router
	r.addRoute([]packet.NodeID{net.hosts[1].id, net.hosts[2].id}, originDiscovery)
	if r.bestRoute(net.hosts[2].id) == nil {
		t.Fatal("route not installed")
	}
	r.removeLink(net.hosts[1].id, net.hosts[2].id)
	if r.bestRoute(net.hosts[2].id) != nil {
		t.Error("route using the broken link survived removeLink")
	}
}

func TestCachePrefersFresherRoutes(t *testing.T) {
	net := newLine(t, 5, DefaultConfig())
	r := net.hosts[0].router
	dst := net.hosts[4].id
	long := []packet.NodeID{net.hosts[1].id, net.hosts[2].id, net.hosts[3].id, dst}
	short := []packet.NodeID{net.hosts[1].id, dst}
	r.addRoute(short, originDiscovery)
	net.run(t, 1) // advance the clock so "later" is observable
	r.addRoute(long, originNotice)
	if got := r.bestRoute(dst); !samePath(got, long) {
		t.Errorf("cache preferred %v; fresher route %v should win", got, long)
	}
}

func TestCacheRejectsRoutesThroughSelf(t *testing.T) {
	net := newLine(t, 3, DefaultConfig())
	r := net.hosts[1].router
	r.addRoute([]packet.NodeID{net.hosts[1].id, net.hosts[2].id}, originNotice)
	if r.bestRoute(net.hosts[2].id) != nil {
		t.Error("cache accepted a route looping through the owner")
	}
}

func TestCacheExpiry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RouteLifetime = 5
	net := newLine(t, 3, cfg)
	r := net.hosts[0].router
	r.addRoute([]packet.NodeID{net.hosts[1].id, net.hosts[2].id}, originDiscovery)
	net.run(t, 20)
	if r.bestRoute(net.hosts[2].id) != nil {
		t.Error("expired route still served")
	}
	snap := net.hosts[0].collector.Snapshot(20, 0, 0)
	if snap.RouteCounts[trace.RouteRemoval] == 0 {
		t.Error("expiry did not record RouteRemoval")
	}
}

func TestLoopFreeConcat(t *testing.T) {
	if _, ok := loopFreeConcat([]packet.NodeID{1, 2}, []packet.NodeID{3, 4}); !ok {
		t.Error("disjoint concat rejected")
	}
	if _, ok := loopFreeConcat([]packet.NodeID{1, 2}, []packet.NodeID{3, 1}); ok {
		t.Error("looping concat accepted")
	}
}

func TestReverseTo(t *testing.T) {
	// record [5, 7] transmitted by 7, me=9: route to 5 is [7, 5].
	got := reverseTo(nil, []packet.NodeID{5, 7}, 9, 7)
	if !samePath(got, []packet.NodeID{7, 5}) {
		t.Errorf("reverseTo = %v, want [7 5]", got)
	}
	// me inside the record: no route.
	if reverseTo(nil, []packet.NodeID{5, 9, 7}, 9, 7) != nil {
		t.Error("reverseTo through self should be nil")
	}
	// transmitter not the last record entry (bogus black-hole message):
	// prepend it.
	got = reverseTo(nil, []packet.NodeID{5}, 9, 7)
	if !samePath(got, []packet.NodeID{7, 5}) {
		t.Errorf("reverseTo with detached transmitter = %v, want [7 5]", got)
	}
}
