// Package comm implements the paper's communication model — remote memory
// access (PUT/GET) and remote queues (ENQ/DEQ) — over the three protected
// communication architectures: message proxies, custom hardware, and
// system calls. The primitives are asynchronous; completion is signaled
// through local and remote synchronization flags, letting programs overlap
// communication latency with computation.
package comm

import (
	"fmt"

	"mproxy/internal/arch"
	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/proxy"
	"mproxy/internal/rel"
	"mproxy/internal/sim"
	"mproxy/internal/sim/par"
	"mproxy/internal/trace"
)

// HeaderSize is the network packet header size in bytes; headers count
// toward link serialization.
const HeaderSize = 16

// DefaultCommandQueueCap is the per-user command-queue capacity under the
// message-proxy design points when Options.CommandQueueCap is zero. A full
// ring applies backpressure: the user spins (one polling period per retry)
// until the proxy drains an entry.
const DefaultCommandQueueCap = 1024

// Options carries the per-fabric tunables. Every knob lives on the fabric
// built with it — there is no package-level mutable simulation state — so
// concurrently running engines (workload.RunJobs) can use different
// configurations without racing.
type Options struct {
	// CommandQueueCap overrides the per-user command-queue capacity under
	// the message-proxy design points (0 = DefaultCommandQueueCap).
	CommandQueueCap int
	// ProxySched overrides the cluster's proxy-scheduling policy (see
	// proxy.SchedByName). Empty defers to the cluster's resolved policy,
	// which itself defaults to static slot-modulo.
	ProxySched string
	// Rel, when non-nil, carries all inter-node packets over the reliable
	// transport (see rel.go), exactly as EnableRel would.
	Rel *rel.Config
}

// queueCap resolves the effective command-queue capacity.
func (o Options) queueCap() int {
	if o.CommandQueueCap > 0 {
		return o.CommandQueueCap
	}
	return DefaultCommandQueueCap
}

// OpKind enumerates the RMA/RQ primitives.
type OpKind int

const (
	OpPut OpKind = iota
	OpGet
	OpEnq
	OpDeq
	opKinds
)

func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "PUT"
	case OpGet:
		return "GET"
	case OpEnq:
		return "ENQ"
	case OpDeq:
		return "DEQ"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Stats aggregates message traffic for the Table 6 analysis.
type Stats struct {
	Ops   [opKinds]int64
	Bytes [opKinds]int64
	// Intra counts operations that stayed within an SMP node (shared
	// memory; no network message, no agent work).
	Intra int64
}

// LatencyStat summarizes observed end-to-end operation latencies
// (submission to data deposit at the destination — one way, unlike the
// Table 4 micro-benchmarks which time the completion round trip).
type LatencyStat struct {
	Count  int64
	MeanUs float64
	MaxUs  float64
}

type latAccum struct {
	count int64
	sum   sim.Time
	max   sim.Time
}

func (a *latAccum) add(d sim.Time) {
	a.count++
	a.sum += d
	if d > a.max {
		a.max = d
	}
}

func (a latAccum) stat() LatencyStat {
	st := LatencyStat{Count: a.count, MaxUs: a.max.Micros()}
	if a.count > 0 {
		st.MeanUs = (a.sum / sim.Time(a.count)).Micros()
	}
	return st
}

// TotalOps returns the total RMA/RQ operation count.
func (s Stats) TotalOps() int64 {
	var n int64
	for _, v := range s.Ops {
		n += v
	}
	return n
}

// TotalBytes returns the total payload bytes moved.
func (s Stats) TotalBytes() int64 {
	var n int64
	for _, v := range s.Bytes {
		n += v
	}
	return n
}

// AvgMsgSize returns the average payload per operation in bytes.
func (s Stats) AvgMsgSize() float64 {
	ops := s.TotalOps()
	if ops == 0 {
		return 0
	}
	return float64(s.TotalBytes()) / float64(ops)
}

// Fabric wires a cluster's endpoints to its communication agents under the
// cluster's design point.
type Fabric struct {
	Cl  *machine.Cluster
	A   arch.Params
	opt Options
	eps []*Endpoint
	// scanners holds the per-(node, proxy) round-robin command-queue
	// scanner used by the message proxy design points.
	scanners [][]*proxy.Scanner[request]
	// cmdqNames mirrors the scanners' registration order with the trace
	// component name of each command queue ("rank<N>.cmdq"), so the pick
	// sites can emit which queue a scan dequeued without formatting on
	// the hot path.
	cmdqNames [][][]string
	// sched is the proxy-scheduling policy binding endpoint command
	// streams to proxies (Options.ProxySched, else the cluster's).
	sched proxy.Sched
	// stealSeq seeds each node's deterministic victim rotation; stealWork
	// holds the prebuilt per-(node, victim) steal work items so a steal
	// turn submits without allocating.
	stealSeq  []uint64
	stealWork [][]machine.Work

	// forceRemote disables the intra-node shared-memory fast path,
	// pushing same-node operations through the agent and loopback network
	// (the Figure 9 ablation: how much does the bypass relieve the
	// proxy?).
	forceRemote bool

	// relE, when non-nil, carries all inter-node packets over the
	// reliable transport (see rel.go); relSink receives its frames.
	relE    *rel.Engine
	relSink *relSink

	// pktFree and reqFree recycle the agents' packets and request boxes,
	// so steady-state messaging allocates nothing (see newPacket for the
	// pooling gate).
	pktFree sim.Freelist[packet]
	reqFree sim.Freelist[reqBox]

	// parallel marks a fabric running under the sharded windowing driver
	// (Parallelize): packet pooling is disabled — a packet is allocated on
	// its source shard and released on its destination shard, so a shared
	// freelist would race — and cross-shard flat-model deliveries detour
	// through the mailboxes.
	parallel bool

	// lat accumulates completion latencies per destination node — an
	// operation completes in its destination's event context, which on a
	// parallel cluster is that node's shard — and LatencyStats merges the
	// per-node accumulators (sums and maxima commute, so the merge is
	// deterministic).
	lat [][opKinds]latAccum
}

// New builds the fabric for cl under default Options, creating one
// endpoint per compute processor and, for message-proxy design points,
// registering one command queue per endpoint with the node's proxy
// scanner.
func New(cl *machine.Cluster) *Fabric { return NewWith(cl, Options{}) }

// NewWith is New under explicit per-fabric Options.
func NewWith(cl *machine.Cluster, opt Options) *Fabric {
	f := &Fabric{Cl: cl, A: cl.Arch, opt: opt}
	f.lat = make([][opKinds]latAccum, len(cl.Nodes))
	f.sched = cl.Sched
	if opt.ProxySched != "" {
		s, err := proxy.SchedByName(opt.ProxySched)
		if err != nil {
			panic(err)
		}
		f.sched = s
	}
	if f.sched == nil {
		// Clusters assembled outside machine.New carry no policy.
		f.sched, _ = proxy.SchedByName("")
	}
	// Each agent gets its resident protocol frame: the continuation state
	// its work items run through, built once per agent. (System-call
	// nodes have no agents.)
	for _, nd := range cl.Nodes {
		for k, ag := range nd.Agents {
			fr := &agentExec{f: f, a: ag, node: nd, scanIdx: k}
			fr.stepK = fr.step
			ag.SetExec(fr)
		}
	}
	if f.A.Kind == arch.Proxy {
		f.scanners = make([][]*proxy.Scanner[request], len(cl.Nodes))
		f.cmdqNames = make([][][]string, len(cl.Nodes))
		for i, nd := range cl.Nodes {
			f.scanners[i] = make([]*proxy.Scanner[request], len(nd.Agents))
			f.cmdqNames[i] = make([][]string, len(nd.Agents))
			for k := range nd.Agents {
				s := proxy.NewScanner[request]()
				// Scan passes feed the trace stream under the serving
				// agent's name; Emit is a no-op without a tracer.
				name := nd.Agents[k].Name + ".scan"
				eng := nd.Eng // scan passes run in the node's event context
				s.SetObserver(func(probes, headChecks int64, found bool) {
					eng.Emit(trace.KScan, name, trace.ScanArg(probes, headChecks, found))
				})
				f.scanners[i][k] = s
				// A proxy crash (fault plane) wipes the scanner's volatile
				// state; on restart it reprobes every registered queue head.
				nd.Agents[k].OnRestart(s.Restart)
			}
		}
		if f.sched.Steal() {
			f.installStealing()
		}
	}
	if opt.Rel != nil {
		f.EnableRel(*opt.Rel)
	}
	for _, cpu := range cl.CPUs {
		ep := &Endpoint{f: f, cpu: cpu, rank: cpu.Rank}
		if f.A.Kind == arch.Proxy {
			ep.cmdq = proxy.NewCommandQueue[request](cpu.Rank, opt.queueCap())
			nProxies := len(cpu.Node.Agents)
			ep.proxyIdx = f.sched.Home(cpu.Node.ID, cpu.Slot, cpu.Rank, nProxies)
			ep.cmdqIdx = f.scanners[cpu.Node.ID][ep.proxyIdx].Register(ep.cmdq)
			ep.cmdqComp = fmt.Sprintf("rank%d.cmdq", cpu.Rank)
			f.cmdqNames[cpu.Node.ID][ep.proxyIdx] = append(f.cmdqNames[cpu.Node.ID][ep.proxyIdx], ep.cmdqComp)
			// The proxy-service work item is identical for every operation
			// this endpoint submits (the request travels via the command
			// queue, not the work item), so build it once.
			ep.work = machine.Work{TFn: mpServiceWork}
		}
		f.eps = append(f.eps, ep)
	}
	if fabricHook != nil {
		fabricHook(f)
	}
	return f
}

// fabricHook, when set, observes every fabric built by New. It mirrors
// machine.OnNewCluster for the scenario layer: the timeline sampler
// uses it to attach command-queue depth probes to each fresh fabric.
var fabricHook func(*Fabric)

// OnNewFabric installs (or, with nil, removes) a hook invoked with every
// subsequently built fabric, after its endpoints and command queues exist.
func OnNewFabric(fn func(*Fabric)) { fabricHook = fn }

// Endpoints returns all endpoints, indexed by global rank.
func (f *Fabric) Endpoints() []*Endpoint { return f.eps }

// CommandQueue returns the endpoint's proxy command queue (nil on design
// points without one).
func (ep *Endpoint) CommandQueue() *proxy.CommandQueue[request] { return ep.cmdq }

// Endpoint returns the endpoint of a global rank.
func (f *Fabric) Endpoint(rank int) *Endpoint { return f.eps[rank] }

// Stats returns the accumulated traffic statistics, aggregated over the
// per-endpoint counters (each endpoint's counters are only ever touched
// from its own node's event context, so a parallel run needs no locks and
// this sum is deterministic).
func (f *Fabric) Stats() Stats {
	var s Stats
	for _, ep := range f.eps {
		for k := 0; k < int(opKinds); k++ {
			s.Ops[k] += ep.opsK[k]
			s.Bytes[k] += ep.bytesK[k]
		}
		s.Intra += ep.intra
	}
	return s
}

// DisableIntraBypass routes intra-node operations through the
// communication agent instead of shared memory. For ablation studies only.
func (f *Fabric) DisableIntraBypass() { f.forceRemote = true }

// Parallelize prepares the fabric for sharded windowed execution driven by
// ps: packet and CCB pooling switch off (see newPacket, newReqBox), and —
// on the flat single-link model, where the fabric itself is the packet
// sink — each node's output link gets a route hook that detours
// cross-shard deliveries through ps's mailboxes. Multi-switch clusters
// route at the interconnect instead (topo.Net.Parallelize owns those
// links). Must be called before any traffic is submitted; requires a
// sharded cluster.
func (f *Fabric) Parallelize(ps *par.Sim) {
	if !f.Cl.Sharded() {
		panic("comm: Parallelize on an unsharded cluster")
	}
	f.parallel = true
	if f.Cl.Net != nil {
		return
	}
	shard := f.Cl.NodeShard
	for _, nd := range f.Cl.Nodes {
		src := shard[nd.ID]
		nd.OutLink.SetRoute(func(at sim.Time, sink machine.PacketSink, arg any) bool {
			pkt, ok := arg.(*packet)
			if !ok {
				return false
			}
			dst := shard[f.nodeOf(pkt.to).ID]
			if dst == src {
				return false
			}
			ps.Post(int(src), int(dst), at, func() { sink.DeliverPacket(arg, machine.PacketFate{}) })
			return true
		})
	}
}

// LatencyStats reports observed one-way operation latencies by kind,
// measured inside whatever workload ran — under load, not quiescent.
func (f *Fabric) LatencyStats() map[OpKind]LatencyStat {
	out := make(map[OpKind]LatencyStat, int(opKinds))
	for k := OpKind(0); k < opKinds; k++ {
		var a latAccum
		for n := range f.lat {
			b := &f.lat[n][k]
			a.count += b.count
			a.sum += b.sum
			if b.max > a.max {
				a.max = b.max
			}
		}
		if a.count > 0 {
			out[k] = a.stat()
		}
	}
	return out
}

// opDone records one completed operation's latency. node is the node in
// whose event context the completion runs (the destination of the data
// movement); its engine is the correct clock in sequential and sharded
// runs.
func (f *Fabric) opDone(node *machine.Node, kind OpKind, issued sim.Time) {
	d := node.Eng.Now() - issued
	f.lat[node.ID][kind].add(d)
	node.Eng.Emit(trace.KOpDone, kind.String(), int64(d))
}

// ExactlyOnce reports whether every record the fabric delivers reaches its
// destination queue exactly once, unaliased by any retained copy: no
// fault plane may duplicate a packet and no reliable transport keeps
// payloads for retransmission. Only then may a receiver recycle a record
// buffer once it has consumed it.
func (f *Fabric) ExactlyOnce() bool { return f.relE == nil && !f.Cl.Faulty() }

// Registry returns the cluster's address-space registry.
func (f *Fabric) Registry() *memory.Registry { return f.Cl.Reg }

// Endpoint is one compute process's handle on the communication system. It
// must be bound to the simulated process before use.
type Endpoint struct {
	f       *Fabric
	cpu     *machine.CPU
	rank    int
	proc    *sim.Proc
	cmdq    *proxy.CommandQueue[request]
	cmdqIdx int
	// cmdqComp is the command queue's trace component name, emitted on
	// every command enqueue so span assembly can pair a proxy's pickup
	// with the exact command it dequeued (the agent work tokens are
	// fungible: a scan may service another endpoint's command).
	cmdqComp string
	proxyIdx int // which of the node's proxies serves this endpoint
	// work is the pre-built proxy work item submitted once per operation
	// (proxy design points only).
	work machine.Work
	// subFree pools the task-side submission frames (see taskapi.go).
	subFree sim.Freelist[submitFrame]

	// Traffic counters live per endpoint — not on the fabric — because an
	// endpoint submits only from its own node's event context; a parallel
	// run's shards therefore never contend on them, and Fabric.Stats sums
	// them deterministically.
	ops    int64
	bytes  int64
	opsK   [opKinds]int64
	bytesK [opKinds]int64
	intra  int64
}

// Bind attaches the simulated process that issues operations through this
// endpoint (the registration step of Section 4: the user allocates command
// queues and registers them with the proxy via one system call at startup).
func (ep *Endpoint) Bind(p *sim.Proc) { ep.proc = p }

// Proc returns the bound process.
func (ep *Endpoint) Proc() *sim.Proc { return ep.proc }

// Rank returns the endpoint's global rank.
func (ep *Endpoint) Rank() int { return ep.rank }

// Node returns the endpoint's SMP node.
func (ep *Endpoint) Node() *machine.Node { return ep.cpu.Node }

// CPU returns the endpoint's compute processor.
func (ep *Endpoint) CPU() *machine.CPU { return ep.cpu }

// Ops returns the number of operations this endpoint has issued.
func (ep *Endpoint) Ops() int64 { return ep.ops }

// Bytes returns the payload bytes this endpoint has moved.
func (ep *Endpoint) Bytes() int64 { return ep.bytes }

// request is a submitted RMA/RQ command.
type request struct {
	kind    OpKind
	from    int
	issued  sim.Time
	local   memory.Addr
	payload []byte // ENQ immediate payload (instead of local)
	remote  memory.Addr
	rq      memory.QueueRef
	n       int
	fsync   memory.FlagRef
	rsync   memory.FlagRef
}

// Put copies n bytes from local (in the caller's space) to remote. rsync is
// signaled at the destination when the data is deposited; fsync, if
// non-nil, is signaled locally once the destination confirms the deposit.
func (ep *Endpoint) Put(local, remote memory.Addr, n int, fsync, rsync memory.FlagRef) error {
	if err := ep.checkRMA(local, remote, n, "PUT"); err != nil {
		return err
	}
	ep.record(OpPut, n)
	ep.submit(request{kind: OpPut, from: ep.rank, local: local, remote: remote, n: n, fsync: fsync, rsync: rsync})
	return nil
}

// PutBytes is Put with an immediate payload (a value composed in registers
// rather than read from a source buffer); it costs the same as a PUT of
// len(data) bytes and is safe to issue back-to-back, since the data is
// captured at submission.
func (ep *Endpoint) PutBytes(data []byte, remote memory.Addr, fsync, rsync memory.FlagRef) error {
	if _, err := ep.f.Cl.Reg.CheckAccess(ep.rank, remote, len(data), "PUT remote"); err != nil {
		return err
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	ep.record(OpPut, len(data))
	ep.submit(request{kind: OpPut, from: ep.rank, payload: buf, remote: remote, n: len(data), fsync: fsync, rsync: rsync})
	return nil
}

// Get copies n bytes from remote into local. fsync is signaled locally when
// the data arrives; rsync, if non-nil, is signaled at the remote end when
// the source has been read.
func (ep *Endpoint) Get(local, remote memory.Addr, n int, fsync, rsync memory.FlagRef) error {
	if err := ep.checkRMA(local, remote, n, "GET"); err != nil {
		return err
	}
	ep.record(OpGet, n)
	ep.submit(request{kind: OpGet, from: ep.rank, local: local, remote: remote, n: n, fsync: fsync, rsync: rsync})
	return nil
}

// Enq atomically appends n bytes starting at local to the tail of the
// remote queue rq. lsync is signaled locally when the source buffer has
// been transmitted and may be reused.
func (ep *Endpoint) Enq(local memory.Addr, rq memory.QueueRef, n int, lsync memory.FlagRef) error {
	reg := ep.f.Cl.Reg
	if _, err := reg.CheckAccess(ep.rank, local, n, "ENQ source"); err != nil {
		return err
	}
	if _, err := reg.CheckQueue(ep.rank, rq, "ENQ"); err != nil {
		return err
	}
	ep.record(OpEnq, n)
	ep.submit(request{kind: OpEnq, from: ep.rank, local: local, rq: rq, n: n, fsync: lsync})
	return nil
}

// EnqBytes is Enq with an immediate payload (a record composed in
// registers rather than in a memory buffer); it costs the same.
func (ep *Endpoint) EnqBytes(data []byte, rq memory.QueueRef, lsync memory.FlagRef) error {
	if _, err := ep.f.Cl.Reg.CheckQueue(ep.rank, rq, "ENQ"); err != nil {
		return err
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	ep.record(OpEnq, len(data))
	ep.submit(request{kind: OpEnq, from: ep.rank, payload: buf, rq: rq, n: len(data), fsync: lsync})
	return nil
}

// Deq removes the record at the head of the (possibly remote) queue rq and
// copies up to n bytes of it to local. lsync is signaled when the data
// arrives. If the queue is empty the dequeue completes once a record is
// enqueued.
func (ep *Endpoint) Deq(local memory.Addr, rq memory.QueueRef, n int, lsync memory.FlagRef) error {
	reg := ep.f.Cl.Reg
	if _, err := reg.CheckAccess(ep.rank, local, n, "DEQ dest"); err != nil {
		return err
	}
	if _, err := reg.CheckQueue(ep.rank, rq, "DEQ"); err != nil {
		return err
	}
	ep.record(OpDeq, n)
	ep.submit(request{kind: OpDeq, from: ep.rank, local: local, rq: rq, n: n, fsync: lsync})
	return nil
}

// Recv blocks until the local queue q has a record and returns it,
// charging the user-level dequeue cost. This is the fast path a process
// uses on queues in its own address space (message handlers, Active
// Message polls).
func (ep *Endpoint) Recv(q *memory.RQueue) []byte {
	if q.Owner != ep.rank {
		panic(fmt.Sprintf("comm: rank %d Recv on rank %d's queue", ep.rank, q.Owner))
	}
	rec := q.Take(ep.proc)
	ep.cpu.Compute(ep.proc, ep.f.dequeueCost())
	return rec
}

// TryRecv is Recv without blocking; the head probe costs one miss only
// when it finds data (a polled-empty queue stays in cache).
func (ep *Endpoint) TryRecv(q *memory.RQueue) ([]byte, bool) {
	if q.Owner != ep.rank {
		panic(fmt.Sprintf("comm: rank %d TryRecv on rank %d's queue", ep.rank, q.Owner))
	}
	rec, ok := q.TryTake()
	if ok {
		ep.cpu.Compute(ep.proc, ep.f.dequeueCost())
	}
	return rec, ok
}

// WaitFlag blocks until the referenced local flag reaches need, then
// charges the completion-detection cost (a miss on the flag's cache line;
// a status system call under SW).
func (ep *Endpoint) WaitFlag(ref memory.FlagRef, need int64) {
	fl, ok := ep.f.Cl.Reg.Flag(ref)
	if !ok {
		panic(fmt.Sprintf("comm: rank %d waits on unknown flag %+v", ep.rank, ref))
	}
	fl.Wait(ep.proc, need)
	ep.cpu.Compute(ep.proc, ep.f.detectCost())
}

// FlagValue reads the referenced flag without blocking or cost (a cached
// re-read of an already-detected flag).
func (ep *Endpoint) FlagValue(ref memory.FlagRef) int64 {
	fl, ok := ep.f.Cl.Reg.Flag(ref)
	if !ok {
		return 0
	}
	return fl.Value()
}

// Compute charges d of application computation to this endpoint's CPU.
func (ep *Endpoint) Compute(d sim.Time) { ep.cpu.Compute(ep.proc, d) }

func (ep *Endpoint) checkRMA(local, remote memory.Addr, n int, op string) error {
	if n <= 0 {
		return fmt.Errorf("comm: %s of %d bytes", op, n)
	}
	// The op tag only reaches a message on the fault path; concatenating
	// the side suffix up front would cost two allocations per clean RMA.
	reg := ep.f.Cl.Reg
	if _, err := reg.CheckAccess(ep.rank, local, n, op); err != nil {
		return faultSide(err, op+" local")
	}
	if _, err := reg.CheckAccess(ep.rank, remote, n, op); err != nil {
		return faultSide(err, op+" remote")
	}
	return nil
}

// faultSide rewrites the Op of a fresh access fault to carry which side of
// the transfer (local or remote) tripped it.
func faultSide(err error, op string) error {
	if f, ok := err.(*memory.Fault); ok {
		f.Op = op
	}
	return err
}

func (ep *Endpoint) record(kind OpKind, n int) {
	ep.ops++
	ep.bytes += int64(n)
	ep.opsK[kind]++
	ep.bytesK[kind] += int64(n)
	ep.cpu.Node.Eng.Emit(trace.KOpSubmit, kind.String(), int64(n))
}

// submit hands the request to the architecture-specific send path after
// charging the submission overhead on the caller's CPU. Operations whose
// target lives on the same SMP node move through shared memory directly.
func (ep *Endpoint) submit(r request) {
	f := ep.f
	r.issued = ep.cpu.Node.Eng.Now()
	if !f.forceRemote && f.nodeOf(f.targetRank(&r)) == ep.cpu.Node {
		ep.intra++
		f.intra(ep, r)
		return
	}
	switch f.A.Kind {
	case arch.Proxy:
		// Writing the opcode and operands into the user's command queue:
		// a read miss on the tail entry and a write miss publishing it.
		ep.cpu.Compute(ep.proc, 2*f.A.AgentMiss+f.A.Instr(0.2))
		if err := ep.cmdq.Enqueue(ep.rank, r); err != nil {
			// Queue full: the user spins until the proxy drains an entry.
			for err != nil {
				ep.cpu.Compute(ep.proc, f.A.PollDelay())
				err = ep.cmdq.Enqueue(ep.rank, r)
			}
		}
		node := ep.cpu.Node
		node.Eng.Emit(trace.KEnqueue, ep.cmdqComp, int64(ep.cmdq.Len()))
		f.scanners[node.ID][ep.proxyIdx].MarkNonEmpty(ep.cmdqIdx)
		node.Agents[ep.proxyIdx].Submit(ep.work)
	case arch.CustomHW:
		ep.cpu.Compute(ep.proc, f.A.ComputeOvh)
		f.submitHW(ep.cpu.Node, r)
	case arch.Syscall:
		f.swSend(ep, r)
	}
}

// submitHW hands a command to the node's adapter. Boxing the request into
// the work item's any would allocate per operation; a recycled CCB box
// carries it instead.
func (f *Fabric) submitHW(node *machine.Node, r request) {
	box := f.newReqBox()
	box.r = r
	node.Agent.Submit(machine.Work{TFn: hwSendWork, Arg: box})
}
