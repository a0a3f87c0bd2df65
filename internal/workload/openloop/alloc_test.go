package openloop

import (
	"testing"

	"mproxy/internal/am"
	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/fault"
	"mproxy/internal/kv"
	"mproxy/internal/machine"
	"mproxy/internal/machine/topo"
	"mproxy/internal/sim"
)

// TestAllocPinServingRoundTrips pins the serving request path at zero
// allocations: once warm, a window of steady-state GET, replicated PUT
// or SCAN round trips — open-loop issue, AM marshaling, command-queue
// submission, proxy scan, fat-tree flight, KV handling, and the reply's
// way back to the client's receive loop — must not allocate. The warmup
// covers the one-time growth (frame and record pools, the SCAN replies'
// 2 KiB record class among them, packet and delivery pools, event
// queues). The fresh-keys case draws PUT keys uniformly from 2^40 and
// pins windows a hundred times longer, so each of them writes hundreds
// of keys no earlier request touched: the servers must hold no per-key
// state that grows with the keys written.
func TestAllocPinServingRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		name       string
		pGet, pPut float64
		keys       *zipfParams
		window     sim.Time
	}{
		{"GET", 1, 0, zipfFor(16, 0.5), 200 * sim.Microsecond},
		{"PUT", 0, 1, zipfFor(16, 0.5), 200 * sim.Microsecond},
		{"SCAN", 0, 0, zipfFor(16, 0.5), 200 * sim.Microsecond},
		{"PUT-fresh-keys", 0, 1, zipfFor(1<<40, 0), 20 * sim.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, l, svc := servingStack(t, 4)
			var replies int64
			svc.OnReply = func(int, kv.Op, int64, int64) { replies++ }
			for _, c := range servingClients(eng, l, svc, 4, tc.pGet, tc.pPut, tc.keys) {
				eng.SpawnTask("client", c.issue)
				port := c.port
				eng.SpawnTaskDaemon("recv", func(tk *sim.Task) {
					port.ServeWhileTask(tk, func() bool { return false })
				})
			}
			window := tc.window
			if err := eng.RunUntil(100 * window); err != nil {
				t.Fatal(err)
			}
			if replies == 0 {
				t.Fatal("warmup completed no round trips")
			}
			before := replies
			if got := testing.AllocsPerRun(50, func() {
				if err := eng.RunUntil(eng.Now() + window); err != nil {
					t.Fatal(err)
				}
			}); got != 0 {
				t.Errorf("steady-state %s round trips: %v allocs/window, want 0", tc.name, got)
			}
			if replies == before {
				t.Fatal("pinned windows completed no round trips")
			}
			if served := svc.Served(kv.OpGet) + svc.Served(kv.OpPut) + svc.Served(kv.OpScan); served < replies {
				t.Fatalf("servers handled %d requests but clients saw %d replies", served, replies)
			}
			eng.Shutdown()
		})
	}
}

// servingStack builds a nodes-node MP1 fat-tree cluster serving KV from
// slot 0 of every node, with one client slot per node.
func servingStack(t *testing.T, nodes int) (*sim.Engine, *am.Layer, *kv.Service) {
	t.Helper()
	a, ok := arch.ByName("MP1")
	if !ok {
		t.Fatal("unknown arch MP1")
	}
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: nodes, ProcsPerNode: 2}, a)
	g, err := topo.ByName("fat-tree", nodes)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetInterconnect(topo.NewNet(cl, g))
	l := am.New(comm.NewWith(cl, comm.Options{CommandQueueCap: 64}))
	servers := make([]int, nodes)
	for n := range servers {
		servers[n] = 2 * n
		port := l.Port(servers[n])
		eng.SpawnTaskDaemon("server", func(tk *sim.Task) {
			port.ServeWhileTask(tk, func() bool { return false })
		})
	}
	return eng, l, kv.New(l, kv.Config{Servers: servers, ValueBytes: 64, ScanCount: 16, Replication: 2})
}

// servingClients returns one open-loop generator per node, on slot 1,
// with an effectively endless quota and the given op mix, drawing keys
// from zp.
func servingClients(eng *sim.Engine, l *am.Layer, svc *kv.Service, nodes int, pGet, pPut float64, zp *zipfParams) []*client {
	var cs []*client
	for n := 0; n < nodes; n++ {
		rank := 2*n + 1
		cs = append(cs, &client{
			eng:   eng,
			svc:   svc,
			port:  l.Port(rank),
			arr:   newArrivals(1, uint64(rank), 0, 100, false),
			keys:  zipfGen{s: fault.NewStream(1, fault.DomainKey, uint64(rank), 0), p: zp},
			ops:   fault.NewStream(1, fault.DomainOpMix, uint64(rank), 0),
			pGet:  pGet,
			pPut:  pPut,
			quota: 1 << 30,
		})
	}
	return cs
}
