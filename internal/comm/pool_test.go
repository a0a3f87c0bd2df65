package comm

import (
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/machine"
	"mproxy/internal/memory"
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

// TestReqBoxesSurviveAFullRing: behind a one-entry command queue, a task
// that submits back to back finds the ring full and retries. Every
// command control block its submissions take, including those of the
// attempts that bounced, goes back to the engine's pool once the proxy
// has drained the queue.
func TestReqBoxesSurviveAFullRing(t *testing.T) {
	const burst = 8
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, arch.MP1)
	f := NewWith(cl, Options{CommandQueueCap: 1})
	q := f.Registry().NewQueue(1)
	q.Grant(0)
	ref := memory.QueueRef{Owner: 1, ID: q.ID}
	ep := f.Endpoint(0)
	submit := func() {
		eng.SpawnTask("submitter", func(tk *sim.Task) {
			i := 0
			var next func()
			next = func() {
				if i == burst {
					tk.End()
					return
				}
				i++
				if err := ep.EnqBytesTask(tk, []byte{byte(i)}, ref, memory.FlagRef{}, next); err != nil {
					t.Error(err)
				}
			}
			next()
		})
		if err := eng.RunUntil(eng.Now() + sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	submit() // grows the pool to the burst's working depth
	// Spare boxes let every attempt draw from the pool rather than
	// allocate, so a box an attempt drops shows as a shortfall.
	pool, full := &f.pools[0].req, ep.CommandQueue().FullHits()
	for i := 0; i < burst; i++ {
		pool.Put(&reqBox{})
	}
	before := pool.Len()
	submit()
	if ep.CommandQueue().FullHits() == full {
		t.Fatal("no submission found the ring full")
	}
	if got := pool.Len(); got != before {
		t.Errorf("request-box pool holds %d boxes after the queue drained, %d before the burst", got, before)
	}
	if n := q.Len(); n != 2*burst {
		t.Errorf("%d records delivered, want %d", n, 2*burst)
	}
	eng.Shutdown()
}
