package comm

import (
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
)

// TestAllocPinTaskPutRound pins the whole converted stack at zero: with
// the agents running as callback machines, a steady-state PUT round trip —
// command-queue enqueue, proxy scan, ship over the wire through the link
// sink, remote deposit, flag signal, and the two user coroutines parking
// and resuming around it — must not allocate. The warmup covers the
// one-time growth (packet and delivery freelists, FIFO rings, event
// queues); after that, any allocation is a regression on the exact path
// the pingpong-e2e benchmark gates.
func TestAllocPinTaskPutRound(t *testing.T) {
	const n = 64
	a, ok := arch.ByName("MP1")
	if !ok {
		t.Fatal("unknown arch MP1")
	}
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, a)
	f := New(cl)
	reg := f.Registry()
	b0 := reg.NewSegment(0, n)
	b1 := reg.NewSegment(1, n)
	b0.Grant(1)
	b1.Grant(0)
	ping := reg.NewFlag(1)
	pong := reg.NewFlag(0)
	pingF, _ := reg.Flag(ping)
	pongF, _ := reg.Flag(pong)
	rounds := 0
	eng.Spawn("pinger", func(p *sim.Proc) {
		ep := f.Endpoint(0)
		ep.Bind(p)
		for i := 0; ; i++ {
			if err := ep.Put(b0.Addr(0), b1.Addr(0), n, memory.FlagRef{}, ping); err != nil {
				panic(err)
			}
			pongF.Wait(p, int64(i+1))
			rounds++
		}
	})
	eng.Spawn("ponger", func(p *sim.Proc) {
		ep := f.Endpoint(1)
		ep.Bind(p)
		for i := 0; ; i++ {
			pingF.Wait(p, int64(i+1))
			if err := ep.Put(b1.Addr(0), b0.Addr(0), n, memory.FlagRef{}, pong); err != nil {
				panic(err)
			}
		}
	})

	// One warm window, then pin: each window advances simulated time far
	// enough to cover several complete round trips.
	window := sim.Millisecond
	if err := eng.RunUntil(window); err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Fatal("warmup completed no round trips")
	}
	before := rounds
	if got := testing.AllocsPerRun(100, func() {
		if err := eng.RunUntil(eng.Now() + window); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("steady-state PUT round trips: %v allocs/window, want 0", got)
	}
	if rounds == before {
		t.Fatal("pinned windows completed no round trips")
	}
	eng.Shutdown()
}
