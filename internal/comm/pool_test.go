package comm

import (
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/machine"
	"mproxy/internal/sim"
)

// TestFabricPoolsPerEngine: on a sharded cluster every node and endpoint
// of one shard draws from that shard engine's pools, and two shards
// never share one.
func TestFabricPoolsPerEngine(t *testing.T) {
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	cl := machine.NewSharded(engs, machine.Config{Nodes: 4, ProcsPerNode: 2, SimShards: 2}, arch.MP1)
	f := New(cl)
	if f.pools[0] != f.pools[1] || f.pools[2] != f.pools[3] {
		t.Error("nodes of one shard have separate pools")
	}
	if f.pools[0] == f.pools[2] {
		t.Error("two shards share a pool")
	}
	if f.Endpoint(0).subFree != &f.pools[0].sub || f.Endpoint(7).subFree != &f.pools[3].sub {
		t.Error("an endpoint's submit frames do not come from its node engine's pool")
	}
	for _, e := range engs {
		e.Shutdown()
	}
}

// TestPacketCrossesEngines: a packet taken on the sending shard and
// consumed on the receiving one returns to the receiver's pool, which
// stops growing at maxFreePackets however one-sided the flow.
func TestPacketCrossesEngines(t *testing.T) {
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	cl := machine.NewSharded(engs, machine.Config{Nodes: 2, ProcsPerNode: 1, SimShards: 2}, arch.MP1)
	f := New(cl)
	src, dst := cl.Nodes[0], cl.Nodes[1]
	pkt := f.newPacket(src)
	if !pkt.pooled {
		t.Fatal("a fault-free fabric without rel left a packet unpooled")
	}
	f.freePacket(dst, pkt)
	if f.pools[src.ID].pkt.Len() != 0 || f.pools[dst.ID].pkt.Len() != 1 {
		t.Fatal("a consumed packet did not return to the receiving engine's pool")
	}
	if f.newPacket(dst) != pkt {
		t.Fatal("the receiving engine does not reuse the packet")
	}
	for i := 0; i < maxFreePackets+10; i++ {
		f.freePacket(dst, f.newPacket(src))
	}
	if n := f.pools[dst.ID].pkt.Len(); n != maxFreePackets {
		t.Fatalf("receiving pool holds %d packets, want the bound %d", n, maxFreePackets)
	}
	for _, e := range engs {
		e.Shutdown()
	}
}
