package comm

import (
	"fmt"

	"mproxy/internal/arch"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// Task-side submission paths. The serving workloads run every client and
// server as a run-to-completion sim.Task, so they submit through these
// continuation-passing twins of the blocking Endpoint calls, which
// application Procs use. Cost accounting mirrors the blocking API call
// for call.

// EnqBytesTask is EnqBytes for a run-to-completion caller: k runs once
// the submission has been charged and handed to the send path (not when
// the record arrives — ENQ is asynchronous either way). Unlike EnqBytes
// it takes ownership of data: the record travels as is and the
// destination queue receives the same slice, so the caller must not
// modify it after the call.
func (ep *Endpoint) EnqBytesTask(t *sim.Task, data []byte, rq memory.QueueRef, lsync memory.FlagRef, k func()) error {
	if _, err := ep.f.Cl.Reg.CheckQueue(ep.rank, rq, "ENQ"); err != nil {
		return err
	}
	ep.record(OpEnq, len(data))
	fr := ep.newSubmitFrame()
	fr.r = request{kind: OpEnq, from: ep.rank, payload: data, rq: rq, n: len(data), fsync: lsync}
	ep.submitTask(t, fr, k)
	return nil
}

// submitFrame is one in-flight task-side submission: the request and the
// caller's continuation, carried across the submission's compute
// intervals. Frames recycle through their endpoint's pool — an endpoint
// submits only from its own node's event context — and carry prebuilt
// continuations, so a steady-state submission allocates nothing.
type submitFrame struct {
	ep *Endpoint
	t  *sim.Task
	r  request
	k  func()

	enqueueK  func() // prebuilt fr.enqueue
	hwSendK   func() // prebuilt fr.hwSend
	intraEnqK func() // prebuilt fr.intraEnq
}

func (ep *Endpoint) newSubmitFrame() *submitFrame {
	fr := ep.subFree.Get()
	if fr == nil {
		fr = &submitFrame{ep: ep}
		fr.enqueueK = fr.enqueue
		fr.hwSendK = fr.hwSend
		fr.intraEnqK = fr.intraEnq
	}
	return fr
}

// finish returns the frame to its endpoint's pool, then runs the
// caller's continuation (which may submit again).
func (fr *submitFrame) finish() {
	k := fr.k
	fr.t, fr.k, fr.r = nil, nil, request{}
	fr.ep.subFree.Put(fr)
	k()
}

// submitTask is submit in continuation-passing style, over a frame
// holding the request.
func (ep *Endpoint) submitTask(t *sim.Task, fr *submitFrame, k func()) {
	f := ep.f
	fr.t, fr.k = t, k
	r := &fr.r
	r.issued = ep.cpu.Node.Eng.Now()
	if !f.forceRemote && f.nodeOf(f.targetRank(r)) == ep.cpu.Node {
		ep.intra++
		f.intraTask(fr)
		return
	}
	switch f.A.Kind {
	case arch.Proxy:
		ep.cpu.ComputeTask(t, 2*f.A.AgentMiss+f.A.Instr(0.2), fr.enqueueK)
	case arch.CustomHW:
		ep.cpu.ComputeTask(t, f.A.ComputeOvh, fr.hwSendK)
	default:
		panic("comm: task submission is not supported under the system-call design point")
	}
}

// enqueue writes the command into the user's ring, spinning one polling
// period per retry while the ring is full, exactly like submit's
// blocking loop.
func (fr *submitFrame) enqueue() {
	ep := fr.ep
	if err := ep.cmdq.Enqueue(ep.rank, fr.r); err != nil {
		ep.cpu.ComputeTask(fr.t, ep.f.A.PollDelay(), fr.enqueueK)
		return
	}
	node := ep.cpu.Node
	node.Eng.Emit(trace.KEnqueue, ep.cmdqComp, int64(ep.cmdq.Len()))
	ep.f.scanners[node.ID][ep.proxyIdx].MarkNonEmpty(ep.cmdqIdx)
	node.Agents[ep.proxyIdx].Submit(ep.work)
	fr.finish()
}

// hwSend hands the command to the adapter once its overhead is charged.
func (fr *submitFrame) hwSend() {
	fr.ep.f.submitHW(fr.ep.cpu.Node, fr.r)
	fr.finish()
}

// intraTask is intra for the task-side operations the serving workloads
// use (ENQ is the only primitive the AM layer submits).
func (f *Fabric) intraTask(fr *submitFrame) {
	A := f.A
	r := &fr.r
	copyCost := 2*A.CacheMiss + arch.XferTime(r.n, A.MemBW)
	switch r.kind {
	case OpEnq:
		fr.ep.cpu.ComputeTask(fr.t, copyCost+A.CacheMiss, fr.intraEnqK)
	default:
		panic(fmt.Sprintf("comm: intra-node %v unsupported on the task path", r.kind))
	}
}

// intraEnq deposits an intra-node ENQ once its copy cost is charged.
func (fr *submitFrame) intraEnq() {
	f := fr.ep.f
	r := &fr.r
	f.depositQueue(r.rq, f.readSource(r))
	f.Cl.Reg.Signal(r.fsync)
	f.opDone(fr.ep.cpu.Node, OpEnq, r.issued)
	fr.finish()
}

// RecvCost returns the user-level dequeue cost charged per received
// record, exported for run-to-completion receive loops layered above
// (the blocking Recv/TryRecv charge it internally).
func (f *Fabric) RecvCost() sim.Time { return f.dequeueCost() }
