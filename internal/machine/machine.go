// Package machine models the hardware of an SMP cluster: nodes containing
// compute processors (CPUs), a network adapter with input/output FIFOs, a
// DMA engine, and — on message-proxy and custom-hardware design points — a
// communication agent (the dedicated proxy processor or the adapter's
// protocol engine). Following the paper's simulator, the models account for
// contention for processors, DMA engines and network queues within a node,
// but not for memory-bus or switch contention.
package machine

import (
	"fmt"

	"mproxy/internal/arch"
	"mproxy/internal/memory"
	"mproxy/internal/proxy"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// PacketFate is the fault plane's verdict on one packet crossing a link.
// The zero value is a clean delivery.
type PacketFate struct {
	// Down marks the packet lost to a link-down window (traced as
	// link-down rather than drop).
	Down bool
	// Drop discards the packet in flight.
	Drop bool
	// Corrupt delivers the packet with payload damage; the receiver is
	// expected to detect it by CRC and discard. CorruptBit selects which
	// payload bit the fault flips.
	Corrupt    bool
	CorruptBit uint32
	// Dup delivers a second, clean copy DupDelay after the first.
	Dup      bool
	DupDelay sim.Time
	// Delay postpones delivery (bounded reordering: delayed packets are
	// overtaken by later ones).
	Delay sim.Time
}

// AgentFate is the fault plane's verdict on a communication agent between
// work items. The zero value is fault-free operation.
type AgentFate struct {
	// Stall suspends the agent for the duration (a hiccup, or the
	// downtime of a crash).
	Stall sim.Time
	// Restart models a crash-and-restart: after the stall the agent's
	// restart hook runs (for a message proxy, the dispatch loop starts
	// over and rebuilds its scan state from the surviving user queues).
	Restart bool
}

// FaultPlane decides packet and agent fates. Implementations must be
// pure functions of their arguments (plus their own immutable
// configuration) so that simulations stay deterministic and planes can be
// shared across concurrently running engines.
type FaultPlane interface {
	// PacketFate is consulted once per packet leaving a node's output
	// link; seq is the link-local packet sequence number.
	PacketFate(link string, node int, seq uint64, now sim.Time) PacketFate
	// AgentFault is consulted by a communication agent before each work
	// item; item is the agent-local serial number of the item.
	AgentFault(agent string, item int64, now sim.Time) AgentFate
}

// clusterHook, when set, observes every cluster built by New. It exists
// for the observability layer, whose probes attach to clusters the
// experiment drivers construct internally: the timeline sampler uses it
// to (re)attach utilization probes to each fresh cluster. Simulation
// parameters (fault planes, transport config, queue capacities) are never
// injected this way — they travel explicitly in each driver's options.
var clusterHook func(*Cluster)

// OnNewCluster installs (or, with nil, removes) a hook invoked with every
// subsequently built cluster, after its nodes, links and agents exist.
func OnNewCluster(fn func(*Cluster)) { clusterHook = fn }

// Config describes a cluster topology.
type Config struct {
	Nodes        int // SMP nodes
	ProcsPerNode int // compute processors per node (excludes any proxy)
	// ProxiesPerNode is the number of dedicated proxy processors per node
	// (message-proxy design points only; default 1). Section 5.4 raises
	// multiple proxies as a way past the 50% utilization wall, noting the
	// memory bus and network interface remain the hard constraint.
	ProxiesPerNode int
	// ProxySched names the proxy-scheduling policy that assigns endpoint
	// command streams to proxy processors (see proxy.SchedByName): "static"
	// slot-modulo (the default, and the paper's binding), "shard" rank-hash
	// affinity, or "steal" for static placement with bounded work stealing
	// between a node's proxies. Empty means static.
	ProxySched string
	// SimShards partitions the cluster's nodes across that many parallel
	// simulation shards (sim/par), each with its own engine; nodes split
	// into contiguous blocks of Nodes/SimShards. 0 or 1 means sequential.
	// Build sharded clusters with NewSharded.
	SimShards int
}

// Procs returns the total number of compute processors.
func (c Config) Procs() int { return c.Nodes * c.ProcsPerNode }

// Validate checks the configuration, distinguishing negative counts —
// which historically fell through the "unset, use default" path silently —
// from genuinely unset zero values.
func (c Config) Validate() error {
	if c.Nodes < 0 {
		return fmt.Errorf("machine: negative Nodes %d", c.Nodes)
	}
	if c.ProcsPerNode < 0 {
		return fmt.Errorf("machine: negative ProcsPerNode %d", c.ProcsPerNode)
	}
	if c.ProxiesPerNode < 0 {
		return fmt.Errorf("machine: negative ProxiesPerNode %d", c.ProxiesPerNode)
	}
	if c.Nodes == 0 || c.ProcsPerNode == 0 {
		return fmt.Errorf("machine: bad config %+v", c)
	}
	if c.SimShards < 0 {
		return fmt.Errorf("machine: negative SimShards %d", c.SimShards)
	}
	if c.SimShards > c.Nodes {
		return fmt.Errorf("machine: SimShards %d exceeds Nodes %d (a shard must own at least one node)", c.SimShards, c.Nodes)
	}
	if c.SimShards > 1 && c.Nodes%c.SimShards != 0 {
		return fmt.Errorf("machine: Nodes %d not divisible by SimShards %d (contiguous equal blocks required)", c.Nodes, c.SimShards)
	}
	if _, err := proxy.SchedByName(c.ProxySched); err != nil {
		return err
	}
	return nil
}

// Interconnect routes inter-node packets through a multi-switch network.
// Without one, a cluster models the paper's single-switch machine: a
// packet serializes on the source node's OutLink and arrives at the
// destination after one wire latency. An interconnect instead owns the
// path from the source OutLink onward — intermediate switch hops, per-hop
// serialization and latency — and delivers to the same PacketSink the
// flat path would have. Implementations live in machine/topo.
type Interconnect interface {
	// Ship sends bytes from node src to node dst, delivering (arg, fate)
	// to sink at the far end. When overlapped is set the first hop charges
	// no serialization time (cut-through under a DMA stream the sender
	// already paid for), matching Link.SendOverlappedToSink.
	Ship(src, dst int, bytes int, sink PacketSink, arg any, overlapped bool)
}

// Cluster is a simulated SMP cluster under one architecture design point.
type Cluster struct {
	Eng   *sim.Engine
	Cfg   Config
	Arch  arch.Params
	Reg   *memory.Registry
	Nodes []*Node
	CPUs  []*CPU // indexed by global rank
	// Sched is the resolved proxy-scheduling policy (from Cfg.ProxySched);
	// the communication fabric consults it when binding endpoints to
	// proxies and when enabling work stealing between a node's proxies.
	Sched proxy.Sched
	// Net, when non-nil, routes inter-node packets through a multi-switch
	// topology instead of the flat source-link -> destination model.
	Net Interconnect
	// Engs lists the shard engines of a parallel cluster (NewSharded), one
	// per contiguous node block; Eng aliases Engs[0], which also owns the
	// shared registry. Nil for a sequential cluster.
	Engs []*sim.Engine
	// NodeShard maps node ID to owning shard for a parallel cluster
	// (node / (Nodes/len(Engs)), i.e. contiguous blocks). Nil when
	// sequential.
	NodeShard []int32

	plane FaultPlane // installed by SetFaultPlane; nil when fault-free
}

// Sharded reports whether the cluster was built over multiple shard
// engines.
func (c *Cluster) Sharded() bool { return len(c.Engs) > 1 }

// EngOf returns the engine owning node n's events: the shard engine on a
// parallel cluster, the single engine otherwise.
func (c *Cluster) EngOf(n int) *sim.Engine {
	if c.NodeShard != nil {
		return c.Engs[c.NodeShard[n]]
	}
	return c.Eng
}

// SetInterconnect installs (or, with nil, removes) a multi-switch network.
func (c *Cluster) SetInterconnect(ic Interconnect) { c.Net = ic }

// New builds a cluster of cfg.Nodes SMPs under design point a.
func New(eng *sim.Engine, cfg Config, a arch.Params) *Cluster {
	if cfg.SimShards > 1 {
		panic(fmt.Sprintf("machine: Config.SimShards=%d requires NewSharded", cfg.SimShards))
	}
	return build(eng, nil, nil, cfg, a)
}

// NewSharded builds a cluster whose nodes are partitioned across
// len(engs) == cfg.SimShards parallel shard engines in contiguous blocks
// of cfg.Nodes/len(engs): every per-node resource (links, DMA, agents)
// lives on its owner shard's engine, and engs[0] additionally hosts the
// shared registry. The config is validated — including the SimShards
// divisibility rules — before any model state is built.
func NewSharded(engs []*sim.Engine, cfg Config, a arch.Params) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.SimShards <= 1 {
		panic(fmt.Sprintf("machine: NewSharded needs SimShards > 1, got %d", cfg.SimShards))
	}
	if len(engs) != cfg.SimShards {
		panic(fmt.Sprintf("machine: NewSharded given %d engines for SimShards=%d", len(engs), cfg.SimShards))
	}
	shard := make([]int32, cfg.Nodes)
	block := cfg.Nodes / cfg.SimShards
	for n := range shard {
		shard[n] = int32(n / block)
	}
	return build(engs[0], engs, shard, cfg, a)
}

// build is the shared constructor: engFor-style node placement with the
// sequential case collapsing to one engine for everything.
func build(eng *sim.Engine, engs []*sim.Engine, shard []int32, cfg Config, a arch.Params) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.ProxiesPerNode == 0 {
		cfg.ProxiesPerNode = 1
	}
	sched, _ := proxy.SchedByName(cfg.ProxySched) // validated above
	c := &Cluster{Eng: eng, Cfg: cfg, Arch: a, Reg: memory.NewRegistry(eng), Sched: sched,
		Engs: engs, NodeShard: shard}
	for n := 0; n < cfg.Nodes; n++ {
		ne := eng
		if shard != nil {
			ne = engs[shard[n]]
		}
		node := &Node{
			ID:      n,
			Cluster: c,
			Eng:     ne,
			OutLink: NewLink(ne, fmt.Sprintf("node%d.out", n), a.NetBW, a.NetLatency),
			DMA:     NewLink(ne, fmt.Sprintf("node%d.dma", n), a.DMABW, 0),
		}
		switch a.Kind {
		case arch.Proxy:
			for k := 0; k < cfg.ProxiesPerNode; k++ {
				node.Agents = append(node.Agents,
					NewAgent(ne, fmt.Sprintf("node%d.proxy%d", n, k), a.PollDelay()))
			}
			node.Agent = node.Agents[0]
		case arch.CustomHW:
			node.Agent = NewAgent(ne, fmt.Sprintf("node%d.adapter", n), 0)
			node.Agents = []*Agent{node.Agent}
		}
		for s := 0; s < cfg.ProcsPerNode; s++ {
			cpu := &CPU{Node: node, Rank: n*cfg.ProcsPerNode + s, Slot: s}
			node.CPUs = append(node.CPUs, cpu)
			c.CPUs = append(c.CPUs, cpu)
		}
		c.Nodes = append(c.Nodes, node)
	}
	if clusterHook != nil {
		clusterHook(c)
	}
	return c
}

// SetFaultPlane installs a fault plane on every node's output link and
// communication agent (or removes it, with nil). Install before any
// traffic flows; without a plane the hooks cost nothing and the cluster
// behaves exactly as the fault-free simulator.
func (c *Cluster) SetFaultPlane(p FaultPlane) {
	c.plane = p
	for _, nd := range c.Nodes {
		nd.OutLink.SetFaultPlane(p, nd.ID)
		for _, ag := range nd.Agents {
			ag.SetFaultPlane(p)
		}
	}
}

// Faulty reports whether a fault plane is installed on the cluster.
func (c *Cluster) Faulty() bool { return c.plane != nil }

// Node is one SMP in the cluster.
type Node struct {
	ID      int
	Cluster *Cluster
	// Eng is the engine owning this node's events: the cluster engine, or
	// the node's shard engine on a parallel cluster. Model layers must
	// consult it (not Cluster.Eng) for anything that runs in a node's
	// event context — clock reads, trace emissions, task wakes — so the
	// same code is correct in sequential and sharded runs.
	Eng     *sim.Engine
	OutLink *Link
	// DMA is the node's DMA engine, modeled as a zero-latency serializing
	// link at the DMA bandwidth.
	DMA *Link
	// Agent is the node's primary communication agent: the message proxy
	// processor (Proxy) or the adapter's protocol engine (CustomHW). Nil
	// under Syscall, where compute processors run the protocol themselves.
	Agent *Agent
	// Agents lists every agent; message-proxy nodes may run several
	// proxies (Section 5.4's "multiple message proxies may help").
	Agents []*Agent
	CPUs   []*CPU
}

// AgentFor returns the agent serving a compute-processor slot (commands
// are statically partitioned across proxies by slot).
func (n *Node) AgentFor(slot int) *Agent {
	if len(n.Agents) == 0 {
		return n.Agent
	}
	return n.Agents[slot%len(n.Agents)]
}

// CPU is a compute processor. Application processes charge compute time to
// their CPU; under system-call communication, incoming messages interrupt
// the CPU and steal cycles from whatever is computing.
type CPU struct {
	Node *Node
	Rank int // global rank
	Slot int // index within the node

	computing   bool
	steal       sim.Time // stolen during the current compute interval
	stolenTotal sim.Time
	busyTotal   sim.Time

	frames sim.Freelist[computeFrame] // ComputeTask interval frames
}

// Compute charges d time units of computation to the CPU on behalf of p,
// extending the interval by any interrupt time stolen while it runs.
func (c *CPU) Compute(p *sim.Proc, d sim.Time) {
	if d < 0 {
		panic("machine: negative compute time")
	}
	c.computing = true
	c.steal = 0
	remaining := d
	for remaining > 0 {
		p.Hold(remaining)
		remaining = c.steal // interrupts pushed the finish time out
		c.steal = 0
	}
	c.computing = false
	c.busyTotal += d
}

// ComputeTask is Compute for a run-to-completion task: k runs once the
// interval (extended by any interrupt time stolen while it runs) has
// elapsed. A zero interval runs k inline without touching the engine.
//
// Each interval runs on a frame from the CPU's pool, whose prebuilt step
// closure is what the task's wake events carry, so charging compute time
// allocates nothing in steady state. Frames are per interval, not per
// CPU: a client task and a server task may compute on one CPU at once.
func (c *CPU) ComputeTask(t *sim.Task, d sim.Time, k func()) {
	if d < 0 {
		panic("machine: negative compute time")
	}
	if d == 0 {
		k()
		return
	}
	c.computing = true
	c.steal = 0
	fr := c.frames.Get()
	if fr == nil {
		fr = &computeFrame{c: c}
		fr.stepK = fr.step
	}
	fr.t, fr.total, fr.k = t, d, k
	t.Hold(d, fr.stepK)
}

// computeFrame is one in-flight ComputeTask interval.
type computeFrame struct {
	c     *CPU
	t     *sim.Task
	total sim.Time
	k     func()
	stepK func() // prebuilt fr.step
}

// step runs when one slice has elapsed: it either extends the interval
// by the stolen time or completes, mirroring Compute's steal loop. The
// frame returns to the pool before k runs, so k may compute again.
func (fr *computeFrame) step() {
	c := fr.c
	if c.steal > 0 {
		more := c.steal
		c.steal = 0
		fr.t.Hold(more, fr.stepK)
		return
	}
	c.computing = false
	c.busyTotal += fr.total
	k := fr.k
	fr.t, fr.k = nil, nil
	c.frames.Put(fr)
	k()
}

// Interrupt steals cost cycles from the CPU (system-call receive path). If
// a compute interval is in progress it is extended; otherwise the handler
// runs in otherwise-idle time.
func (c *CPU) Interrupt(cost sim.Time) {
	c.stolenTotal += cost
	if c.computing {
		c.steal += cost
	}
}

// Stolen returns the total CPU time consumed by interrupt handling.
func (c *CPU) Stolen() sim.Time { return c.stolenTotal }

// BusyTime returns total application compute time charged to the CPU.
func (c *CPU) BusyTime() sim.Time { return c.busyTotal }

// Link is a store-and-forward network output port: packets serialize at the
// link bandwidth, then arrive after the wire latency. Senders do not block;
// the adapter's output FIFO buffers them.
type Link struct {
	eng      *sim.Engine
	name     string
	mbps     float64
	latency  sim.Time
	freeAt   sim.Time
	busy     sim.Time
	packets  int64
	sentByte int64

	// plane, when non-nil, decides the fate of every packet sent on this
	// link; node keys the fault PRNG. Perfect delivery otherwise.
	plane FaultPlane
	node  int
	lost  int64 // packets dropped, corrupted-in-flight or lost to down windows

	// freeDel recycles delivery nodes for the sink-based send path, so a
	// steady-state packet stream schedules without allocating per packet.
	freeDel sim.Freelist[delivery]

	// route, when non-nil, intercepts sink deliveries whose destination is
	// owned by another simulation shard: it receives the absolute arrival
	// time and returns true if it posted the delivery to a cross-shard
	// mailbox, false to fall through to the local (pooled, zero-alloc)
	// path. Installed only in parallel mode; sequential runs pay one nil
	// check.
	route func(at sim.Time, sink PacketSink, arg any) bool
}

// NewLink returns a link of mbps MB/s bandwidth and the given wire latency.
func NewLink(eng *sim.Engine, name string, mbps float64, latency sim.Time) *Link {
	return &Link{eng: eng, name: name, mbps: mbps, latency: latency}
}

// SetFaultPlane installs (or, with nil, removes) the link's fault plane.
func (l *Link) SetFaultPlane(p FaultPlane, node int) { l.plane, l.node = p, node }

// SetRoute installs (or, with nil, removes) the cross-shard routing hook
// on the link's sink-delivery path. Parallel runs never combine routing
// with a fault plane (fault scenarios are parallel-ineligible), so the
// hook lives on the plane-free fast path only.
func (l *Link) SetRoute(r func(at sim.Time, sink PacketSink, arg any) bool) { l.route = r }

// Latency returns the link's wire latency — the lookahead contribution of
// one hop when the link crosses simulation shards.
func (l *Link) Latency() sim.Time { return l.latency }

// PacketSink receives packets sent on a link: every send names the sink
// and an argument it hands back at the arrival time, together with the
// fate the fault plane chose (corruption, in particular). Dropped packets
// are never delivered; duplicated packets are delivered twice.
type PacketSink interface {
	DeliverPacket(arg any, fate PacketFate)
}

// delivery is one in-flight sink delivery. The run closure is built once
// per node and the node recycles through the link's freelist, so the hot
// send path costs zero allocations per packet.
type delivery struct {
	link *Link
	sink PacketSink
	arg  any
	fate PacketFate
	run  func()
}

func (l *Link) newDelivery() *delivery {
	d := l.freeDel.Get()
	if d == nil {
		d = &delivery{link: l}
		d.run = d.fire
	}
	return d
}

// fire recycles the node before delivering, so the sink's processing —
// which may send further packets on this link — sees it available.
func (d *delivery) fire() {
	sink, arg, fate := d.sink, d.arg, d.fate
	d.sink, d.arg, d.fate = nil, nil, PacketFate{}
	d.link.freeDel.Put(d)
	sink.DeliverPacket(arg, fate)
}

// SendToSink serializes n bytes onto the link and delivers arg to sink at
// the arrival time. Headers count toward serialization, so callers pass
// the full packet size.
func (l *Link) SendToSink(n int, sink PacketSink, arg any) {
	xfer := arch.XferTime(n, l.mbps)
	start := l.freeAt
	if now := l.eng.Now(); start < now {
		start = now
	}
	depart := start + xfer
	l.freeAt = depart
	l.busy += xfer
	l.dispatch(n, depart-l.eng.Now(), sink, arg)
}

// SendOverlappedToSink accounts n bytes on the link but charges no
// serialization time, delivering after just the wire latency. It is used
// for DMA-fed transfers, where cut-through overlaps wire serialization
// with the (slower) DMA stream that the caller has already paid for.
func (l *Link) SendOverlappedToSink(n int, sink PacketSink, arg any) {
	l.dispatch(n, 0, sink, arg)
}

// dispatch accounts the packet, consults the fault plane, and schedules
// delivery depart+latency from now. The plane-free path is one schedule
// at the arrival time.
func (l *Link) dispatch(n int, depart sim.Time, sink PacketSink, arg any) {
	seq := uint64(l.packets)
	l.packets++
	l.sentByte += int64(n)
	if l.plane == nil {
		if l.route != nil && l.route(l.eng.Now()+depart+l.latency, sink, arg) {
			return
		}
		d := l.newDelivery()
		d.sink, d.arg = sink, arg
		l.eng.Schedule(depart+l.latency, d.run)
		return
	}
	fate := l.plane.PacketFate(l.name, l.node, seq, l.eng.Now())
	switch {
	case fate.Down:
		l.lost++
		l.eng.Emit(trace.KLinkDown, l.name, int64(seq))
		return
	case fate.Drop:
		l.lost++
		l.eng.Emit(trace.KDrop, l.name, int64(seq))
		return
	}
	if fate.Corrupt {
		l.lost++
	}
	arrive := depart + l.latency + fate.Delay
	d := l.newDelivery()
	d.sink, d.arg, d.fate = sink, arg, fate
	l.eng.Schedule(arrive, d.run)
	if fate.Dup {
		d2 := l.newDelivery()
		d2.sink, d2.arg = sink, arg
		l.eng.Schedule(arrive+fate.DupDelay, d2.run)
	}
}

// Faulty reports whether a fault plane is installed on the link.
func (l *Link) Faulty() bool { return l.plane != nil }

// flagSink raises the *sim.Flag carried as its delivery argument: the
// completion signal of an Occupy transfer.
type flagSink struct{}

func (flagSink) DeliverPacket(arg any, _ PacketFate) { arg.(*sim.Flag).Add(1) }

// Occupy serializes n bytes through the link on behalf of p, blocking p
// until the transfer completes. The system-call design point's kernel
// path uses it to stream a DMA page with the caller blocked.
func (l *Link) Occupy(p *sim.Proc, n int) {
	f := l.eng.NewFlag()
	l.SendToSink(n, flagSink{}, f)
	f.Wait(p, 1)
}

// OccupyTask is Occupy for a run-to-completion agent: k runs when the
// transfer completes. Agents use it to stay busy for the duration of a
// DMA page transfer.
func (l *Link) OccupyTask(t *sim.Task, n int, k func()) {
	f := l.eng.NewFlag()
	l.SendToSink(n, flagSink{}, f)
	f.WaitTask(t, 1, k)
}

// Name returns the link's trace component name.
func (l *Link) Name() string { return l.name }

// Packets returns the number of packets sent.
func (l *Link) Packets() int64 { return l.packets }

// Lost returns the number of packets the fault plane destroyed in flight
// (drops, link-down windows, and corruptions the receiver will discard).
func (l *Link) Lost() int64 { return l.lost }

// Bytes returns the number of bytes sent.
func (l *Link) Bytes() int64 { return l.sentByte }

// BusyTime returns the serialization time spent up to the present instant.
// SendToSink books a packet's full serialization at send time (l.busy) and
// pending transfers occupy the port back-to-back until freeAt, so the
// not-yet-elapsed portion is exactly max(0, freeAt-now); clipping it keeps
// mid-run snapshots exact. At quiesce freeAt <= now and BusyTime == l.busy.
func (l *Link) BusyTime() sim.Time {
	t := l.busy
	if now := l.eng.Now(); l.freeAt > now {
		t -= l.freeAt - now
	}
	return t
}

// Utilization returns link busy time divided by elapsed.
func (l *Link) Utilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(l.BusyTime()) / float64(elapsed)
}

// UtilizationSince returns the fraction of [since, now] the link's output
// port spent serializing, given the cumulative BusyTime observed at since
// (see sim.Resource.UtilizationSince for the windowing contract).
func (l *Link) UtilizationSince(since, busyAtSince sim.Time) float64 {
	now := l.eng.Now()
	if now <= since {
		return 0
	}
	return float64(l.BusyTime()-busyAtSince) / float64(now-since)
}
