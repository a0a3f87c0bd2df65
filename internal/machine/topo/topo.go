// Package topo builds multi-switch interconnect topologies — a two-level
// fat-tree and a dragonfly approximation — out of the machine package's
// link primitive, and routes cluster traffic through them. The paper's
// machine is a single-switch SMP cluster; these topologies are what the
// ROADMAP's 1000+-node serving experiments run on. A topology is a graph
// of elements (endpoint nodes, then switches), each switch owning one
// output link per port; routing tables are built by BFS, one per edge switch,
// with smallest-id tie-breaking, so routes are minimal-hop and a pure
// function of the graph.
package topo

import (
	"fmt"
	"math"
)

// Tier classifies a link's position in the topology, for per-tier
// utilization reporting: edge links attach nodes to switches; core links
// join a fat-tree's leaves to its spines; local and global links are a
// dragonfly's intra- and inter-group links.
type Tier uint8

const (
	TierEdge Tier = iota
	TierCore
	TierLocal
	TierGlobal
	numTiers
)

// String returns the tier's report name.
func (t Tier) String() string {
	switch t {
	case TierEdge:
		return "edge"
	case TierCore:
		return "core"
	case TierLocal:
		return "local"
	case TierGlobal:
		return "global"
	}
	return fmt.Sprintf("tier%d", uint8(t))
}

// Graph is a switch topology. Elements are numbered nodes first — node i
// is element i — then switches: switch s is element Nodes+s. Every node
// attaches to exactly one switch (its Up entry, an edge-tier link);
// switch-to-switch wiring is the Edges list.
type Graph struct {
	Kind     string // "fat-tree" or "dragonfly"
	Nodes    int
	Switches int
	Up       []int32 // per node: the switch element it attaches to
	Edges    []Edge
}

// Edge is one undirected switch-to-switch cable.
type Edge struct {
	A, B int32 // switch element ids
	Tier Tier
}

// FatTree builds a two-level fat-tree over n nodes: ceil(sqrt(n)) nodes
// per leaf switch, and as many spine switches as nodes-per-leaf, with
// every leaf wired to every spine. The square shape keeps leaf port
// counts balanced between down-links and up-links, so 1024 nodes become
// 32 leaves x 32 spines and any cross-leaf route is exactly four links.
func FatTree(n int) Graph {
	if n < 2 {
		panic(fmt.Sprintf("topo: fat-tree needs >= 2 nodes, got %d", n))
	}
	npl := int(math.Ceil(math.Sqrt(float64(n))))
	leaves := (n + npl - 1) / npl
	spines := npl
	g := Graph{Kind: "fat-tree", Nodes: n, Switches: leaves + spines}
	g.Up = make([]int32, n)
	for i := range g.Up {
		g.Up[i] = int32(n + i/npl)
	}
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			g.Edges = append(g.Edges,
				Edge{int32(n + l), int32(n + leaves + s), TierCore})
		}
	}
	return g
}

// Dragonfly builds a balanced dragonfly approximation over n nodes: for
// router radix parameter p, each router hosts p nodes, a group holds
// a = 2p fully-meshed routers, each router carries h = p global ports,
// and g = a*h + 1 groups give exactly one global link between every
// group pair. The smallest p whose capacity p*a*g covers n is chosen and
// the n nodes attach in order (trailing routers may be underfilled), so
// 1024 nodes land on p=4: 33 groups x 8 routers, capacity 1056.
func Dragonfly(n int) Graph {
	if n < 2 {
		panic(fmt.Sprintf("topo: dragonfly needs >= 2 nodes, got %d", n))
	}
	p := 1
	for 2*p*p*(2*p*p+1) < n { // p*a*g with a=2p, h=p, g=a*h+1
		p++
	}
	a, h := 2*p, p
	groups := a*h + 1
	g := Graph{Kind: "dragonfly", Nodes: n, Switches: groups * a}
	g.Up = make([]int32, n)
	for i := range g.Up {
		g.Up[i] = int32(n + i/p)
	}
	for gi := 0; gi < groups; gi++ {
		base := n + gi*a
		for r1 := 0; r1 < a; r1++ {
			for r2 := r1 + 1; r2 < a; r2++ {
				g.Edges = append(g.Edges,
					Edge{int32(base + r1), int32(base + r2), TierLocal})
			}
		}
	}
	// One global link per group pair: group i reserves port j (j-1 when
	// j > i) for group j, and port t lives on the group's router t/h.
	for gi := 0; gi < groups; gi++ {
		for gj := gi + 1; gj < groups; gj++ {
			ri := gi*a + (gj-1)/h
			rj := gj*a + gi/h
			g.Edges = append(g.Edges,
				Edge{int32(n + ri), int32(n + rj), TierGlobal})
		}
	}
	return g
}

// ByName builds the named topology ("fat-tree" or "dragonfly") over n
// nodes.
func ByName(kind string, n int) (Graph, error) {
	switch kind {
	case "fat-tree":
		return FatTree(n), nil
	case "dragonfly":
		return Dragonfly(n), nil
	}
	return Graph{}, fmt.Errorf("topo: unknown topology %q (want fat-tree or dragonfly)", kind)
}
