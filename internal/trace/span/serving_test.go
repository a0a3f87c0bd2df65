package span_test

import (
	"fmt"
	"slices"
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/machine"
	"mproxy/internal/machine/topo"
	"mproxy/internal/sim"
	"mproxy/internal/trace/span"
	"mproxy/internal/workload/openloop"
)

// TestServingMultiHopAttribution runs the serving stack over a 64-node
// fat-tree with a span recorder installed as the run's tracer. Requests
// cross up to four links, forwarded store-and-forward by the switches:
// that forwarding is wire time, not agent service. So every
// agent-service interval must name the agent that served it, and every
// remote span's wire time must cover its route's modeled minimum, hops x
// (serialization + L) — the formula flight.Record.WireReqNs uses.
func TestServingMultiHopAttribution(t *testing.T) {
	const nodes = 64
	rec := span.NewRecorder()
	a, ok := arch.ByName("MP1")
	if !ok {
		t.Fatal("MP1 missing")
	}
	res, err := openloop.Run(openloop.Config{
		Arch: a, Nodes: nodes, Clients: 1, Proxies: 1,
		Topo: "fat-tree", CommandQueueCap: 64,
		ValueBytes: 64, ScanCount: 4, Replication: 2,
		Keys: 512, Theta: 0.99,
		Requests: 400, Warmup: 50,
		LoadUs: []float64{80}, Seed: 7,
		Tracer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIssued == 0 {
		t.Fatal("no requests issued")
	}

	// The run's routes, from a fresh cluster of the same shape.
	g, err := topo.ByName("fat-tree", nodes)
	if err != nil {
		t.Fatal(err)
	}
	net := topo.NewNet(machine.New(sim.NewEngine(), machine.Config{Nodes: nodes, ProcsPerNode: 1}, a), g)

	remote := 0
	for _, s := range rec.CompleteSpans() {
		for _, iv := range s.Intervals {
			if iv.Phase == span.PhaseService && !slices.Contains(s.Route, iv.Where) {
				t.Fatalf("span %d: agent-service at %q, not an agent on its route:\n%s", s.ID, iv.Where, s.Report())
			}
		}
		if s.Intra {
			continue
		}
		remote++
		if len(s.Route) != 2 {
			t.Fatalf("span %d: route %v, want the sending and receiving agents", s.ID, s.Route)
		}
		src, dst := nodeOf(t, s.Route[0]), nodeOf(t, s.Route[1])
		hops := int64(net.Hops(src, dst))
		min := hops * int64(arch.XferTime(comm.HeaderSize+int(s.Bytes), a.NetBW)+a.NetLatency)
		if got := s.PhaseTotal(span.PhaseWire); got < min {
			t.Fatalf("span %d: wire %dns under the %d-hop minimum %dns:\n%s", s.ID, got, hops, min, s.Report())
		}
	}
	if remote == 0 {
		t.Fatal("serving traffic completed no remote spans")
	}
}

// nodeOf parses the node of a proxy agent name ("node<N>.proxy<K>").
func nodeOf(t *testing.T, agent string) int {
	t.Helper()
	var n, k int
	if _, err := fmt.Sscanf(agent, "node%d.proxy%d", &n, &k); err != nil {
		t.Fatalf("agent name %q: %v", agent, err)
	}
	return n
}
