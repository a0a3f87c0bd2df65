package topo

import (
	"fmt"

	"mproxy/internal/machine"
	"mproxy/internal/names"
	"mproxy/internal/sim"
	"mproxy/internal/sim/par"
)

// hop is one packet in flight through the topology. The struct rides the
// link layer's sink path from switch to switch and is recycled through
// the Net's freelist, so steady-state traffic forwards without
// allocating.
type hop struct {
	at    int32 // element the packet is currently heading to
	dst   int32 // destination node
	hops  int32 // links traversed so far (including the one in flight)
	bytes int
	sink  machine.PacketSink
	arg   any
	fate  machine.PacketFate // fault verdicts accumulated along the path
}

// Net routes a cluster's inter-node packets through a Graph. It
// implements machine.Interconnect on the sending side and
// machine.PacketSink on the receiving side: each link delivers to the
// Net, which either forwards on the next switch's output port or hands
// the packet to its real sink at the destination node. Every switch port
// is a machine.Link at the cluster's network bandwidth and wire latency,
// so intermediate hops serialize store-and-forward and per-hop latency
// adds up exactly as the flat model's single hop would.
type Net struct {
	cl    *machine.Cluster
	g     Graph
	adj   [][]int32         // per switch: neighbor element ids, ascending
	links [][]*machine.Link // per switch: output link per port
	tiers [][]Tier          // per switch: tier per port

	// Routing by destination edge switch: past its edge switch a node is
	// indistinguishable from the other nodes on its leaf. route holds one
	// port per (switch, edge switch) pair, row-major by switch, with edge
	// switches numbered in switch order by edgeIdx; nodePort holds each
	// node's port on its edge switch. See port.
	route    []uint16
	edgeIdx  []uint16
	nodePort []uint16
	edges    int // edge switches: route's row length

	// shard maps every element (nodes, then switches) to its owning
	// simulation shard; all-zero on a sequential cluster. Hop pools (each
	// shard engine's sim.Pool) and delivery counters are per shard,
	// indexed by the shard executing the touch, so parallel windows never
	// contend: a hop is taken from the shipping shard's pool and returned
	// to the delivering shard's.
	shard     []int32
	free      []*sim.Freelist[hop]
	delivered []int64
	totalHops []int64
}

// NewNet wires a Net for cl over g. The caller installs it with
// cl.SetInterconnect. Switch links never carry a fault plane — the fault
// surface stays the node output links, as in the flat model.
//
// On a sharded cluster every switch's output links are built on the
// switch's owner engine: a switch attached to nodes belongs to its
// lowest-numbered node's shard (contiguous node blocks keep pod/group
// traffic intra-shard); pure transit switches (fat-tree spines) are dealt
// round-robin across shards so their forwarding load spreads.
func NewNet(cl *machine.Cluster, g Graph) *Net {
	if g.Nodes != cl.Cfg.Nodes {
		panic(fmt.Sprintf("topo: graph has %d nodes, cluster %d", g.Nodes, cl.Cfg.Nodes))
	}
	n := &Net{cl: cl, g: g}
	nsh := 1
	if cl.Sharded() {
		nsh = len(cl.Engs)
		n.shard = shardElements(g, cl.NodeShard, nsh)
	} else {
		n.shard = make([]int32, g.Nodes+g.Switches)
	}
	n.free = make([]*sim.Freelist[hop], nsh)
	for sh := range n.free {
		eng := cl.Eng
		if cl.Sharded() {
			eng = cl.Engs[sh]
		}
		n.free[sh] = sim.Pool[sim.Freelist[hop]](eng)
	}
	n.delivered = make([]int64, nsh)
	n.totalHops = make([]int64, nsh)
	n.adj, n.tiers = neighbors(g)
	// One slab of ports and one string of names for every switch.
	ports := 0
	for _, a := range n.adj {
		ports += len(a)
	}
	links := make([]machine.Link, ports)
	ptrs := make([]*machine.Link, ports)
	var nb names.Builder
	nb.Grow(ports, len(g.Kind)+12)
	for s, a := range n.adj {
		for pi := range a {
			nb.Str(g.Kind).Str(".sw").Int(s).Str(".p").Int(pi).End()
		}
	}
	name := nb.Names()
	n.links = make([][]*machine.Link, g.Switches)
	i := 0
	for s := range n.links {
		eng := cl.Eng
		if cl.Sharded() {
			eng = cl.Engs[n.shard[g.Nodes+s]]
		}
		n.links[s] = ptrs[i : i+len(n.adj[s]) : i+len(n.adj[s])]
		for pi := range n.links[s] {
			links[i].Init(eng, name[i], cl.Arch.NetBW, cl.Arch.NetLatency)
			n.links[s][pi] = &links[i]
			i++
		}
	}
	n.buildRoutes()
	if netHook != nil {
		netHook(n)
	}
	return n
}

// shardElements extends the cluster's node→shard map to switches: a
// switch with attached nodes joins its lowest-numbered node's shard; a
// pure transit switch is assigned round-robin by switch id. Both rules
// are pure functions of the graph, so the partition — and with it the
// parallel schedule — is deterministic.
func shardElements(g Graph, nodeShard []int32, shards int) []int32 {
	es := make([]int32, g.Nodes+g.Switches)
	copy(es, nodeShard)
	attached := make([]int32, g.Switches) // lowest attached node + 1; 0 = transit
	for node := len(g.Up) - 1; node >= 0; node-- {
		attached[int(g.Up[node])-g.Nodes] = int32(node) + 1
	}
	rr := 0
	for s := 0; s < g.Switches; s++ {
		if a := attached[s]; a > 0 {
			es[g.Nodes+s] = nodeShard[a-1]
		} else {
			es[g.Nodes+s] = int32(rr % shards)
			rr++
		}
	}
	return es
}

// Parallelize installs cross-shard routing on every interconnect link —
// the switches' output ports and the nodes' output links, whose traffic
// all carries *hop arguments — posting any delivery bound for an element
// another shard owns into the windowing driver's mailboxes. Deliveries
// that stay on their own shard fall through to the pooled local path
// untouched.
func (n *Net) Parallelize(ps *par.Sim) {
	for s := range n.links {
		src := n.shard[n.g.Nodes+s]
		for _, l := range n.links[s] {
			l.SetRoute(n.routeHook(src, ps))
		}
	}
	for id, nd := range n.cl.Nodes {
		nd.OutLink.SetRoute(n.routeHook(n.shard[id], ps))
	}
}

func (n *Net) routeHook(src int32, ps *par.Sim) func(at sim.Time, sink machine.PacketSink, arg any) bool {
	return func(at sim.Time, sink machine.PacketSink, arg any) bool {
		h, ok := arg.(*hop)
		if !ok {
			return false
		}
		dst := n.shard[h.at]
		if dst == src {
			return false
		}
		ps.Post(int(src), int(dst), at, func() { sink.DeliverPacket(arg, machine.PacketFate{}) })
		return true
	}
}

// netHook, when set, observes every Net the process builds — the
// timeline sampler uses it to probe switch links, mirroring
// machine.OnNewCluster.
var netHook func(*Net)

// OnNewNet installs (or, with nil, removes) a hook invoked with every
// Net built by NewNet.
func OnNewNet(fn func(*Net)) { netHook = fn }

// neighbors builds each switch's port list: every attached node and
// every cabled switch, sorted by element id so port numbering — and with
// it route tie-breaking — is a pure function of the graph. Both tables
// are cut from one slab each.
func neighbors(g Graph) ([][]int32, [][]Tier) {
	deg := make([]int32, g.Switches)
	for _, up := range g.Up {
		deg[int(up)-g.Nodes]++
	}
	for _, e := range g.Edges {
		deg[int(e.A)-g.Nodes]++
		deg[int(e.B)-g.Nodes]++
	}
	ports := len(g.Up) + 2*len(g.Edges)
	adjSlab, tierSlab := make([]int32, 0, ports), make([]Tier, 0, ports)
	adj := make([][]int32, g.Switches)
	tiers := make([][]Tier, g.Switches)
	for s, d := range deg {
		end := len(adjSlab) + int(d)
		adj[s], tiers[s] = adjSlab[len(adjSlab):len(adjSlab):end], tierSlab[len(adjSlab):len(adjSlab):end]
		adjSlab, tierSlab = adjSlab[:end], tierSlab[:end]
	}
	add := func(s int, v int32, t Tier) {
		pi := len(adj[s])
		for pi > 0 && adj[s][pi-1] > v {
			pi--
		}
		adj[s] = append(adj[s], 0)
		tiers[s] = append(tiers[s], 0)
		copy(adj[s][pi+1:], adj[s][pi:])
		copy(tiers[s][pi+1:], tiers[s][pi:])
		adj[s][pi], tiers[s][pi] = v, t
	}
	for node, up := range g.Up {
		add(int(up)-g.Nodes, int32(node), TierEdge)
	}
	for _, e := range g.Edges {
		add(int(e.A)-g.Nodes, e.B, e.Tier)
		add(int(e.B)-g.Nodes, e.A, e.Tier)
	}
	return adj, tiers
}

// routes builds the forwarding tables: a switch forwards toward the
// lowest-numbered port whose neighbor is nearest the destination, which
// makes every route minimal-hop and deterministic. Nodes are leaves, so
// every path into a node passes through its edge switch u, and
// dist(v, dst) = dist(v, u) + 1 for every v != dst: away from u, the next
// hop toward any of u's nodes is the next hop toward u. One BFS over the
// switches from each edge switch therefore fills its column of route for
// every other switch; at u itself the port is the node's own, nodePort.
// Nodes never forward, so the BFS skips them: a node hanging off switch
// s is farther from u than s is, so it never wins the comparison.
func routes(g Graph, adj [][]int32) (route, edgeIdx, nodePort []uint16) {
	S := g.Switches
	edgeIdx = make([]uint16, S)
	nodePort = make([]uint16, g.Nodes)
	var edges []int32
	for s := range adj {
		if len(adj[s]) > 0 && adj[s][0] < int32(g.Nodes) { // ports sort nodes first
			edgeIdx[s] = uint16(len(edges))
			edges = append(edges, int32(s))
		}
		for pi, v := range adj[s] {
			if v < int32(g.Nodes) {
				nodePort[v] = uint16(pi)
			}
		}
	}
	E := len(edges)
	route = make([]uint16, S*E)
	dist := make([]int32, S)
	queue := make([]int32, 0, S)
	for e, u := range edges {
		for i := range dist {
			dist[i] = -1
		}
		dist[u] = 0
		queue = append(queue[:0], u)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, w := range adj[v] {
				if w -= int32(g.Nodes); w >= 0 && dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		for s := range adj {
			if s == int(u) {
				continue
			}
			if dist[s] < 0 {
				panic(fmt.Sprintf("topo: edge switch %d unreachable from switch %d", u, s))
			}
			// Some neighbor is one step nearer and none is nearer still,
			// so the first port found one step nearer is the route.
			for pi, v := range adj[s] {
				if v -= int32(g.Nodes); v >= 0 && dist[v] == dist[s]-1 {
					route[s*E+e] = uint16(pi)
					break
				}
			}
		}
	}
	return route, edgeIdx, nodePort
}

// buildRoutes fills the forwarding tables from the port lists.
func (n *Net) buildRoutes() {
	n.route, n.edgeIdx, n.nodePort = routes(n.g, n.adj)
	n.edges = len(n.route) / n.g.Switches
}

// port returns the port switch s forwards a packet for node dst on: the
// port to dst itself at dst's edge switch, else the port toward that
// edge switch.
func (n *Net) port(s, dst int) int {
	u := int(n.g.Up[dst]) - n.g.Nodes
	if s == u {
		return int(n.nodePort[dst])
	}
	return int(n.route[s*n.edges+int(n.edgeIdx[u])])
}

// newHop takes a hop from the executing shard's pool (sh indexes the
// shard running the caller's event; 0 on a sequential cluster).
func (n *Net) newHop(sh int32) *hop {
	if h := n.free[sh].Get(); h != nil {
		return h
	}
	return &hop{}
}

// Ship implements machine.Interconnect: the packet serializes on the
// source node's output link toward its edge switch, then forwards hop by
// hop along the routing tables until the destination node, where (arg,
// accumulated fate) reach the sink exactly as a flat-model delivery
// would.
func (n *Net) Ship(src, dst int, bytes int, sink machine.PacketSink, arg any, overlapped bool) {
	h := n.newHop(n.shard[src])
	h.at = n.g.Up[src]
	h.dst = int32(dst)
	h.hops = 1
	h.bytes = bytes
	h.sink, h.arg = sink, arg
	out := n.cl.Nodes[src].OutLink
	if overlapped {
		out.SendOverlappedToSink(bytes, n, h)
	} else {
		out.SendToSink(bytes, n, h)
	}
}

// DeliverPacket implements machine.PacketSink for the topology's own
// links: a packet arriving at a switch forwards on the routed port; one
// arriving at its destination node is handed to the real sink.
func (n *Net) DeliverPacket(arg any, fate machine.PacketFate) {
	h := arg.(*hop)
	if fate.Corrupt {
		h.fate.Corrupt = true
		h.fate.CorruptBit = fate.CorruptBit
	}
	at := int(h.at)
	if at < n.g.Nodes {
		// This delivery event runs on the destination node's shard, so
		// the hop and the counters go to that shard's pool.
		sh := n.shard[at]
		sink, a, f, hops := h.sink, h.arg, h.fate, h.hops
		h.sink, h.arg, h.fate = nil, nil, machine.PacketFate{}
		n.free[sh].Put(h)
		n.delivered[sh]++
		n.totalHops[sh] += int64(hops)
		sink.DeliverPacket(a, f)
		return
	}
	s := at - n.g.Nodes
	pi := n.port(s, int(h.dst))
	h.at = n.adj[s][pi]
	h.hops++
	n.links[s][pi].SendToSink(h.bytes, n, h)
}

// DupPacket implements machine.DupSink: a duplicated delivery travels on
// a hop of its own. Sharing one would let the first copy advance or
// recycle the hop under the second. Only node output links carry a fault
// plane, and faulted runs are sequential, so the copy is a plain
// allocation that joins the pool when delivered.
func (n *Net) DupPacket(arg any) any {
	h := *arg.(*hop)
	return &h
}

// Hops walks the routing tables from src to dst without simulating and
// returns the number of links a packet traverses, or -1 on a routing
// loop. Same-node traffic still climbs to the edge switch and back: the
// interconnect only sees packets the transport did not short-circuit.
func (n *Net) Hops(src, dst int) int {
	at := int(n.g.Up[src])
	hops := 1
	for at >= n.g.Nodes {
		if hops > n.g.Switches+2 {
			return -1
		}
		s := at - n.g.Nodes
		pi := n.port(s, dst)
		at = int(n.adj[s][pi])
		hops++
	}
	if at != dst {
		return -1
	}
	return hops
}

// EachLink visits every switch output link with its tier, in switch
// then port order — the deterministic order the links were built in.
func (n *Net) EachLink(f func(t Tier, l *machine.Link)) {
	for s := range n.links {
		for pi, l := range n.links[s] {
			f(n.tiers[s][pi], l)
		}
	}
}

// RouteTiers returns the tier of each link a packet from src to dst
// traverses, in path order: the node's output link first (edge), then
// every switch output port down to the destination node. Returns nil on
// a routing loop. Same-node traffic never reaches the interconnect.
func (n *Net) RouteTiers(src, dst int) []Tier {
	out := []Tier{TierEdge}
	at := int(n.g.Up[src])
	for at >= n.g.Nodes {
		if len(out) > n.g.Switches+2 {
			return nil
		}
		s := at - n.g.Nodes
		pi := n.port(s, dst)
		out = append(out, n.tiers[s][pi])
		at = int(n.adj[s][pi])
	}
	return out
}

// NumTiers bounds the Tier enum for dense per-tier accounting.
const NumTiers = int(numTiers)

// TierLinks returns each tier's link count (indexed by Tier), node
// output links counting toward the edge tier as in TierUtilization.
func (n *Net) TierLinks() []int {
	cnt := make([]int, NumTiers)
	cnt[TierEdge] = len(n.cl.Nodes)
	for s := range n.links {
		for pi := range n.links[s] {
			cnt[n.tiers[s][pi]]++
		}
	}
	return cnt
}

// TierBusy fills busy (length NumTiers) with each tier's cumulative
// busy nanoseconds up to the present instant and returns it. The
// windowed forensics series diffs successive snapshots.
func (n *Net) TierBusy(busy []int64) []int64 {
	for i := range busy {
		busy[i] = 0
	}
	for _, nd := range n.cl.Nodes {
		busy[TierEdge] += int64(nd.OutLink.BusyTime())
	}
	for s := range n.links {
		for pi, l := range n.links[s] {
			busy[n.tiers[s][pi]] += int64(l.BusyTime())
		}
	}
	return busy
}

// Delivered returns the number of packets handed to their final sink,
// summed across shard counters.
func (n *Net) Delivered() int64 {
	var d int64
	for _, v := range n.delivered {
		d += v
	}
	return d
}

// MeanHops returns the average link count over delivered packets.
func (n *Net) MeanHops() float64 {
	d := n.Delivered()
	if d == 0 {
		return 0
	}
	var h int64
	for _, v := range n.totalHops {
		h += v
	}
	return float64(h) / float64(d)
}

// TierUtil is one tier's aggregate link load.
type TierUtil struct {
	Tier  Tier
	Links int
	// Util is the mean utilization across the tier's links over the
	// elapsed window.
	Util float64
}

// TierUtilization summarizes per-tier link load over the elapsed
// simulated time. Node output links count toward the edge tier alongside
// the switches' down-links.
func (n *Net) TierUtilization(elapsed sim.Time) []TierUtil {
	var busy [numTiers]sim.Time
	var cnt [numTiers]int
	for _, nd := range n.cl.Nodes {
		busy[TierEdge] += nd.OutLink.BusyTime()
		cnt[TierEdge]++
	}
	for s := range n.links {
		for pi, l := range n.links[s] {
			t := n.tiers[s][pi]
			busy[t] += l.BusyTime()
			cnt[t]++
		}
	}
	var out []TierUtil
	for t := Tier(0); t < numTiers; t++ {
		if cnt[t] == 0 {
			continue
		}
		u := TierUtil{Tier: t, Links: cnt[t]}
		if elapsed > 0 {
			u.Util = float64(busy[t]) / float64(elapsed) / float64(cnt[t])
		}
		out = append(out, u)
	}
	return out
}
