package topo

import (
	"reflect"
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/machine"
	"mproxy/internal/sim"
)

func mustArch(t *testing.T, name string) arch.Params {
	t.Helper()
	a, ok := arch.ByName(name)
	if !ok {
		t.Fatalf("unknown arch %q", name)
	}
	return a
}

func buildNet(t *testing.T, kind string, nodes int) *Net {
	t.Helper()
	g, err := ByName(kind, nodes)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: nodes, ProcsPerNode: 1}, mustArch(t, "MP1"))
	return NewNet(cl, g)
}

// bfsDist computes single-source shortest hop counts over the element
// graph directly from the Graph — an oracle independent of the Net's
// routing tables.
func bfsDist(g Graph, src int) []int {
	nElem := g.Nodes + g.Switches
	nbr := make([][]int32, nElem)
	link := func(a, b int32) {
		nbr[a] = append(nbr[a], b)
		nbr[b] = append(nbr[b], a)
	}
	for node, up := range g.Up {
		link(int32(node), up)
	}
	for _, e := range g.Edges {
		link(e.A, e.B)
	}
	dist := make([]int, nElem)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, w := range nbr[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// TestRoutesMinimalAndReachable is the routing property test: for every
// node pair at 64, 256 and 1024 nodes, the table-walked route length
// must equal the BFS shortest-path distance (so every pair is reachable
// and every route is minimal-hop).
func TestRoutesMinimalAndReachable(t *testing.T) {
	for _, kind := range []string{"fat-tree", "dragonfly"} {
		for _, nodes := range []int{64, 256, 1024} {
			n := buildNet(t, kind, nodes)
			for src := 0; src < nodes; src++ {
				dist := bfsDist(n.g, src)
				for dst := 0; dst < nodes; dst++ {
					if src == dst {
						continue
					}
					got := n.Hops(src, dst)
					if got != dist[dst] {
						t.Fatalf("%s/%d: route %d->%d is %d hops, BFS distance %d",
							kind, nodes, src, dst, got, dist[dst])
					}
				}
			}
		}
	}
}

// TestRoutesDeterministic rebuilds each topology and requires identical
// routing tables: forwarding must be a pure function of the graph.
func TestRoutesDeterministic(t *testing.T) {
	for _, kind := range []string{"fat-tree", "dragonfly"} {
		for _, nodes := range []int{64, 256, 1024} {
			a, b := buildNet(t, kind, nodes), buildNet(t, kind, nodes)
			if !reflect.DeepEqual(a.route, b.route) {
				t.Fatalf("%s/%d: routing tables differ between builds", kind, nodes)
			}
			if !reflect.DeepEqual(a.adj, b.adj) {
				t.Fatalf("%s/%d: port maps differ between builds", kind, nodes)
			}
		}
	}
}

// routesPerNode is the reference routing-table builder: one BFS from
// every destination node, each switch forwarding toward the
// lowest-numbered port whose neighbor is nearest. routes must build
// exactly these tables with one BFS per attached switch.
func routesPerNode(g Graph, adj [][]int32) [][]uint16 {
	nElem := g.Nodes + g.Switches
	nbr := make([][]int32, nElem)
	for node, up := range g.Up {
		nbr[node] = []int32{up}
	}
	for s := range adj {
		nbr[g.Nodes+s] = adj[s]
	}
	route := make([][]uint16, g.Switches)
	for s := range route {
		route[s] = make([]uint16, g.Nodes)
	}
	dist := make([]int32, nElem)
	queue := make([]int32, 0, nElem)
	for dst := 0; dst < g.Nodes; dst++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue = append(queue[:0], int32(dst))
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, w := range nbr[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		for s := range adj {
			best, bestD := -1, int32(1<<30)
			for pi, v := range adj[s] {
				if d := dist[v]; d >= 0 && d < bestD {
					best, bestD = pi, d
				}
			}
			route[s][dst] = uint16(best)
		}
	}
	return route
}

// TestRoutesMatchPerNodeBFS checks the per-edge-switch tables against
// the per-destination reference: port(s, dst) must equal the reference's
// entry for every (switch, destination) pair, including sizes that leave
// the last leaf or router underfilled.
func TestRoutesMatchPerNodeBFS(t *testing.T) {
	for _, kind := range []string{"fat-tree", "dragonfly"} {
		for _, nodes := range []int{2, 3, 16, 17, 100, 1024, 4096} {
			g, err := ByName(kind, nodes)
			if err != nil {
				t.Fatal(err)
			}
			adj, _ := neighbors(g)
			n := &Net{g: g, adj: adj}
			n.buildRoutes()
			want := routesPerNode(g, adj)
			for s := range want {
				for dst, p := range want[s] {
					if got := n.port(s, dst); got != int(p) {
						t.Fatalf("%s/%d: switch %d forwards for node %d on port %d, per-node BFS on %d", kind, nodes, s, dst, got, p)
					}
				}
			}
		}
	}
}

// TestRouteTableSize pins the forwarding state of the 1,024-node
// topologies: one port per (switch, edge switch) pair, plus an index per
// switch and a port per node. Per-destination tables took 128 kB
// (fat-tree) and 540 kB (dragonfly).
func TestRouteTableSize(t *testing.T) {
	for _, c := range []struct {
		kind     string
		maxBytes int
	}{{"fat-tree", 8 << 10}, {"dragonfly", 142 << 10}} {
		g, err := ByName(c.kind, 1024)
		if err != nil {
			t.Fatal(err)
		}
		adj, _ := neighbors(g)
		route, edgeIdx, nodePort := routes(g, adj)
		if got := 2 * (len(route) + len(edgeIdx) + len(nodePort)); got > c.maxBytes {
			t.Errorf("%s/1024: routing tables take %d bytes, want <= %d", c.kind, got, c.maxBytes)
		}
	}
}

// TestHopCountsByLocality pins the expected path shapes: fat-tree routes
// are 2 links within a leaf and 4 across leaves; dragonfly routes never
// exceed node-router-local-global-local-router-node (6 links).
func TestHopCountsByLocality(t *testing.T) {
	ft := buildNet(t, "fat-tree", 64) // 8 nodes per leaf
	if got := ft.Hops(0, 1); got != 2 {
		t.Errorf("fat-tree same-leaf route = %d hops, want 2", got)
	}
	if got := ft.Hops(0, 63); got != 4 {
		t.Errorf("fat-tree cross-leaf route = %d hops, want 4", got)
	}
	df := buildNet(t, "dragonfly", 256)
	for src := 0; src < 256; src += 17 {
		for dst := 0; dst < 256; dst++ {
			if src == dst {
				continue
			}
			if got := df.Hops(src, dst); got < 2 || got > 6 {
				t.Fatalf("dragonfly route %d->%d = %d hops, want 2..6", src, dst, got)
			}
		}
	}
}

type captureSink struct {
	got   []any
	fates []machine.PacketFate
}

func (c *captureSink) DeliverPacket(arg any, fate machine.PacketFate) {
	c.got = append(c.got, arg)
	c.fates = append(c.fates, fate)
}

// TestShipDelivers runs a packet through a simulated fat-tree and checks
// delivery, hop accounting, and that per-hop latency stacks up: a
// 4-link route must take at least 4 wire latencies plus 4 serializations.
func TestShipDelivers(t *testing.T) {
	eng := sim.NewEngine()
	a := mustArch(t, "MP1")
	cl := machine.New(eng, machine.Config{Nodes: 64, ProcsPerNode: 1}, a)
	n := NewNet(cl, FatTree(64))
	cl.SetInterconnect(n)
	sink := &captureSink{}
	const bytes = 1024
	n.Ship(0, 63, bytes, sink, "pkt", false)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.got) != 1 || sink.got[0] != "pkt" {
		t.Fatalf("delivered %v, want one \"pkt\"", sink.got)
	}
	if n.Delivered() != 1 || n.MeanHops() != 4 {
		t.Fatalf("delivered=%d meanHops=%v, want 1 and 4", n.Delivered(), n.MeanHops())
	}
	want := 4 * (a.NetLatency + arch.XferTime(bytes, a.NetBW))
	if eng.Now() < want {
		t.Fatalf("4-hop delivery at %d, want >= %d (4 latencies + 4 serializations)", eng.Now(), want)
	}
	utils := n.TierUtilization(eng.Now())
	var tiers []string
	for _, u := range utils {
		tiers = append(tiers, u.Tier.String())
	}
	if len(utils) != 2 || utils[0].Tier != TierEdge || utils[1].Tier != TierCore {
		t.Fatalf("fat-tree tiers = %v, want [edge core]", tiers)
	}
}
