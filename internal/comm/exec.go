package comm

import (
	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// Agent protocol paths. Each agent carries one agentExec: a resident
// continuation frame its work items run through. A work item is one turn
// of the agent's polling loop (Figure 5): it takes one command or one
// packet and runs it to completion, each cost a hold(cost, pc) that parks
// the agent's Task and resumes at the named program counter. One work
// item executes at a time per agent, which is what lets a single frame
// serve every item with zero steady-state allocation. The preset digests
// in internal/scenario/testdata pin every byte these paths render.
//
// Message proxy (MP): the proxy is the node's Agent. Costs come from the
// Section 4 latency model: cache misses on command-queue entries and user
// buffers (AgentMiss, reduced by MP2's cache-update primitive), uncached
// FIFO accesses (U), cross-memory attaches (V), fixed instruction
// sequences scaled by the proxy's speed (us/S), and the polling notice
// delay (P) charged by the Agent when it was idle.
//
// Custom hardware (HW): the node Agent models the adapter's protocol
// engine (its message input and output logic). Protection comes from
// virtual-memory mapping, so there are no vm_att calls, no polling delay
// and no page pinning — commands traverse the memory bus and the
// hardware engine continuously consumes messages from the network input.

// Program counters for agentExec.step. The page-streaming states are
// shared by MP and HW (costs come from arch params, the loop shape is
// identical).
const (
	pcFinish = iota // work item complete
	pcPagePinned
	pcPageDMADone

	pcMPSend
	pcMPShipPIO
	pcMPEnqSync
	pcMPPutPages
	pcMPGetReqShip
	pcMPDeqReqShip
	pcMPPutDeposit
	pcMPPutRsync
	pcMPPutAckShip
	pcMPPutPage
	pcMPGetReqDecoded
	pcMPGetReqRsync
	pcMPGetDataShip
	pcMPGetPagesStart
	pcMPGetDeposit
	pcMPGetFsync
	pcMPGetPageStep
	pcMPEnqDeposit
	pcMPDeqReqTake
	pcMPDeqReplyShip
	pcMPDeqDeposit
	pcMPDeqFsync
	pcMPAck
	pcMPStealScan

	pcHWShipPIO
	pcHWEnqSync
	pcHWPutPages
	pcHWGetReqShip
	pcHWDeqReqShip
	pcHWPutDeposit
	pcHWPutRsync
	pcHWPutAckShip
	pcHWPutPage
	pcHWGetReqRsync
	pcHWGetDataShip
	pcHWGetPagesStart
	pcHWGetDeposit
	pcHWGetFsync
	pcHWGetPageStep
	pcHWEnqDeposit
	pcHWDeqReqTake
	pcHWDeqReplyShip
	pcHWDeqDeposit
	pcHWDeqFsync
	pcHWAck
)

// agentExec is one agent's protocol frame.
type agentExec struct {
	f        *Fabric
	a        *machine.Agent
	node     *machine.Node
	scanIdx  int // index of the proxy's command-queue scanner on this node
	stealIdx int // victim scanner index of the current stolen turn

	pc    int
	stepK func() // prebuilt fr.step, carried by every Hold/Occupy wake

	r    request   // current send-side command
	pkt  *packet   // current receive-side packet (freed at finish)
	box  *deqReply // current DEQ reply operand
	nOut int       // DEQ reply payload size (min of requested and record)

	// Page-streaming loop state (startPages).
	proto   packet
	srcAddr memory.Addr
	off     int
	chunk   int
	donePC  int
}

// deqReply carries a dequeued record and the request it answers from the
// queue's TakeAsync callback to the reply work item.
type deqReply struct {
	req packet
	rec []byte
}

// picked marks the agent picking operation id up; a command carries the
// probes of the scan pass that dequeued it.
func (fr *agentExec) picked(id uint32, probes, headChecks int64) {
	if fr.f.spans != nil {
		fr.f.spans.Picked(id, fr.a.Name, probes, headChecks)
	}
}

// take copies the command a scan pass dequeued into the frame, marks it
// picked up with that pass's probes, and frees its box.
func (fr *agentExec) take(box *reqBox) {
	fr.r = box.r
	fr.picked(fr.r.span, fr.f.pass.probes, fr.f.pass.headChecks)
	fr.f.freeReqBox(fr.node, box)
}

// opDone completes the operation of the packet being processed.
func (fr *agentExec) opDone(kind OpKind) {
	fr.f.opDone(fr.node, kind, fr.pkt.issued, fr.pkt.span, fr.a.Name)
}

func (fr *agentExec) hold(d sim.Time, pc int) {
	fr.pc = pc
	fr.a.Task().Hold(d, fr.stepK)
}

// finish completes the current work item: release the consumed packet,
// clear the frame, hand the agent to its next item.
func (fr *agentExec) finish() {
	if fr.pkt != nil {
		fr.f.freePacket(fr.node, fr.pkt)
		fr.pkt = nil
	}
	fr.r = request{}
	fr.box = nil
	fr.proto = packet{}
	fr.a.WorkDone()
}

// step dispatches the frame's parked continuation.
func (fr *agentExec) step() {
	f := fr.f
	A := &f.A
	reg := f.Cl.Reg
	switch fr.pc {
	case pcFinish:
		fr.finish()

	// ---- shared page streaming (startPages) ----
	case pcPagePinned:
		fr.pagePinned()
	case pcPageDMADone:
		fr.pageDMADone()

	// ---- message proxy: send side (fr.mpSend) ----
	case pcMPSend:
		fr.mpSend()
	case pcMPShipPIO:
		r := &fr.r
		kind := pktPutData
		if r.kind == OpEnq {
			kind = pktEnqData
		}
		pkt := f.newPacket(fr.node)
		pkt.kind, pkt.span, pkt.from, pkt.to, pkt.n = kind, r.span, r.from, f.targetRank(r), r.n
		pkt.issued, pkt.dst, pkt.rq, pkt.fsync, pkt.rsync = r.issued, r.remote, r.rq, r.fsync, r.rsync
		if r.kind == OpEnq {
			// The record is handed to the destination queue, which retains
			// the slice: it must not alias the packet's reusable buf.
			pkt.data = f.readSource(r)
		} else {
			f.readSourceInto(pkt, r)
		}
		f.ship(fr.node, pkt)
		if r.kind == OpEnq && !r.fsync.Nil() {
			fr.hold(A.AgentMiss, pcMPEnqSync) // ENQ lsync: the source buffer has been transmitted
			return
		}
		fr.finish()
	case pcMPEnqSync:
		reg.Signal(fr.r.fsync)
		fr.finish()
	case pcMPPutPages:
		r := &fr.r
		fr.startPages(packet{kind: pktPutPage, span: r.span, from: r.from, to: f.targetRank(r), n: r.n,
			issued: r.issued, dst: r.remote, fsync: r.fsync, rsync: r.rsync}, r.local, pcFinish)
	case pcMPGetReqShip:
		r := &fr.r
		pkt := f.newPacket(fr.node)
		pkt.kind, pkt.span, pkt.from, pkt.to, pkt.n = pktGetReq, r.span, r.from, f.targetRank(r), r.n
		pkt.issued, pkt.src, pkt.dst, pkt.fsync, pkt.rsync = r.issued, r.remote, r.local, r.fsync, r.rsync
		f.ship(fr.node, pkt)
		fr.finish()
	case pcMPDeqReqShip:
		r := &fr.r
		pkt := f.newPacket(fr.node)
		pkt.kind, pkt.span, pkt.from, pkt.to, pkt.n = pktDeqReq, r.span, r.from, f.targetRank(r), r.n
		pkt.issued, pkt.rq, pkt.dst, pkt.fsync = r.issued, r.rq, r.local, r.fsync
		f.ship(fr.node, pkt)
		fr.finish()

	// ---- message proxy: receive side (mpRecvWork) ----
	case pcMPPutDeposit:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		fr.opDone(OpPut)
		fr.mpFinishPut()
	case pcMPPutRsync:
		reg.Signal(fr.pkt.rsync)
		fr.mpFinishPutAck()
	case pcMPPutAckShip:
		fr.shipAck()
		fr.finish()
	case pcMPPutPage:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		if fr.pkt.last {
			fr.opDone(OpPut)
			fr.mpFinishPut()
			return
		}
		fr.finish()
	case pcMPGetReqDecoded:
		if !fr.pkt.rsync.Nil() {
			fr.hold(A.AgentMiss, pcMPGetReqRsync)
			return
		}
		fr.mpGetReqReply()
	case pcMPGetReqRsync:
		reg.Signal(fr.pkt.rsync)
		fr.mpGetReqReply()
	case pcMPGetDataShip:
		in := fr.pkt
		pkt := f.newPacket(fr.node)
		pkt.kind, pkt.span, pkt.from, pkt.to, pkt.n = pktGetData, in.span, in.to, in.from, in.n
		pkt.issued, pkt.dst, pkt.fsync = in.issued, in.dst, in.fsync
		f.readBytesInto(pkt, in.src, in.n)
		f.ship(fr.node, pkt)
		fr.finish()
	case pcMPGetPagesStart:
		in := fr.pkt
		fr.startPages(packet{kind: pktGetPage, span: in.span, from: in.to, to: in.from, n: in.n,
			issued: in.issued, dst: in.dst, fsync: in.fsync}, in.src, pcFinish)
	case pcMPGetDeposit:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		fr.opDone(OpGet)
		fr.hold(A.AgentMiss, pcMPGetFsync)
	case pcMPGetFsync:
		reg.Signal(fr.pkt.fsync)
		fr.finish()
	case pcMPGetPageStep:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		if fr.pkt.last {
			fr.opDone(OpGet)
			fr.hold(A.AgentMiss, pcMPGetFsync)
			return
		}
		fr.finish()
	case pcMPEnqDeposit:
		f.depositQueue(fr.pkt.rq, fr.pkt.data)
		fr.opDone(OpEnq)
		fr.finish()
	case pcMPDeqReqTake:
		fr.deqTake(false)
	case pcMPDeqReplyShip:
		fr.shipDeqReply()
	case pcMPDeqDeposit:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		fr.opDone(OpDeq)
		fr.hold(A.AgentMiss, pcMPDeqFsync)
	case pcMPDeqFsync:
		reg.Signal(fr.pkt.fsync)
		fr.finish()
	case pcMPAck:
		reg.Signal(fr.pkt.fsync)
		fr.finish()
	case pcMPStealScan:
		// Stolen turn (see steal.go): the cross-queue penalty is paid,
		// now scan the victim exactly as mpServiceWork scans home turf.
		sc := f.scanners[fr.node.ID][fr.stealIdx]
		box, qi, ok := sc.Next()
		if !ok {
			fr.finish() // the victim (or another thief) got there first
			return
		}
		fr.node.Eng.Emit(trace.KDequeue, f.eps[sc.Owner(qi)].cmdqComp, 0)
		fr.take(box)
		fr.hold(A.AgentMiss+A.Instr(0.5)+A.VMAtt, pcMPSend)

	// ---- custom hardware: send side (hwSendWork) ----
	case pcHWShipPIO:
		r := &fr.r
		kind := pktPutData
		if r.kind == OpEnq {
			kind = pktEnqData
		}
		pkt := f.newPacket(fr.node)
		pkt.kind, pkt.span, pkt.from, pkt.to, pkt.n = kind, r.span, r.from, f.targetRank(r), r.n
		pkt.issued, pkt.dst, pkt.rq, pkt.fsync, pkt.rsync = r.issued, r.remote, r.rq, r.fsync, r.rsync
		if r.kind == OpEnq {
			pkt.data = f.readSource(r)
		} else {
			f.readSourceInto(pkt, r)
		}
		f.ship(fr.node, pkt)
		if r.kind == OpEnq && !r.fsync.Nil() {
			fr.hold(A.CacheMiss, pcHWEnqSync)
			return
		}
		fr.finish()
	case pcHWEnqSync:
		reg.Signal(fr.r.fsync)
		fr.finish()
	case pcHWPutPages:
		r := &fr.r
		fr.startPages(packet{kind: pktPutPage, span: r.span, from: r.from, to: f.targetRank(r), n: r.n,
			issued: r.issued, dst: r.remote, fsync: r.fsync, rsync: r.rsync}, r.local, pcFinish)
	case pcHWGetReqShip:
		r := &fr.r
		pkt := f.newPacket(fr.node)
		pkt.kind, pkt.span, pkt.from, pkt.to, pkt.n = pktGetReq, r.span, r.from, f.targetRank(r), r.n
		pkt.issued, pkt.src, pkt.dst, pkt.fsync, pkt.rsync = r.issued, r.remote, r.local, r.fsync, r.rsync
		f.ship(fr.node, pkt)
		fr.finish()
	case pcHWDeqReqShip:
		r := &fr.r
		pkt := f.newPacket(fr.node)
		pkt.kind, pkt.span, pkt.from, pkt.to, pkt.n = pktDeqReq, r.span, r.from, f.targetRank(r), r.n
		pkt.issued, pkt.rq, pkt.dst, pkt.fsync = r.issued, r.rq, r.local, r.fsync
		f.ship(fr.node, pkt)
		fr.finish()

	// ---- custom hardware: receive side (hwRecvWork) ----
	case pcHWPutDeposit:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		fr.opDone(OpPut)
		fr.hwFinishPut()
	case pcHWPutRsync:
		reg.Signal(fr.pkt.rsync)
		fr.hwFinishPutAck()
	case pcHWPutAckShip:
		fr.shipAck()
		fr.finish()
	case pcHWPutPage:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		if fr.pkt.last {
			fr.opDone(OpPut)
			fr.hwFinishPut()
			return
		}
		fr.finish()
	case pcHWGetReqRsync:
		reg.Signal(fr.pkt.rsync)
		fr.hwGetReqReply()
	case pcHWGetDataShip:
		in := fr.pkt
		pkt := f.newPacket(fr.node)
		pkt.kind, pkt.span, pkt.from, pkt.to, pkt.n = pktGetData, in.span, in.to, in.from, in.n
		pkt.issued, pkt.dst, pkt.fsync = in.issued, in.dst, in.fsync
		f.readBytesInto(pkt, in.src, in.n)
		f.ship(fr.node, pkt)
		fr.finish()
	case pcHWGetPagesStart:
		in := fr.pkt
		fr.startPages(packet{kind: pktGetPage, span: in.span, from: in.to, to: in.from, n: in.n,
			issued: in.issued, dst: in.dst, fsync: in.fsync}, in.src, pcFinish)
	case pcHWGetDeposit:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		fr.opDone(OpGet)
		fr.hold(A.CacheMiss, pcHWGetFsync)
	case pcHWGetFsync:
		reg.Signal(fr.pkt.fsync)
		fr.finish()
	case pcHWGetPageStep:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		if fr.pkt.last {
			fr.opDone(OpGet)
			fr.hold(A.CacheMiss, pcHWGetFsync)
			return
		}
		fr.finish()
	case pcHWEnqDeposit:
		f.depositQueue(fr.pkt.rq, fr.pkt.data)
		fr.opDone(OpEnq)
		fr.finish()
	case pcHWDeqReqTake:
		fr.deqTake(true)
	case pcHWDeqReplyShip:
		fr.shipDeqReply()
	case pcHWDeqDeposit:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		fr.opDone(OpDeq)
		fr.hold(A.CacheMiss, pcHWDeqFsync)
	case pcHWDeqFsync:
		reg.Signal(fr.pkt.fsync)
		fr.finish()
	case pcHWAck:
		reg.Signal(fr.pkt.fsync)
		fr.finish()

	default:
		panic("comm: agentExec woke at unknown pc")
	}
}

// shipAck sends the PUT confirmation for the packet being processed.
func (fr *agentExec) shipAck() {
	in := fr.pkt
	pkt := fr.f.newPacket(fr.node)
	pkt.kind, pkt.from, pkt.to, pkt.fsync = pktAck, in.to, in.from, in.fsync
	fr.f.ship(fr.node, pkt)
}

// mpFinishPut completes a PUT deposit: signal the remote flag, then, when
// the sender asked for local completion, return an acknowledgment.
func (fr *agentExec) mpFinishPut() {
	if !fr.pkt.rsync.Nil() {
		fr.hold(fr.f.A.AgentMiss, pcMPPutRsync)
		return
	}
	fr.mpFinishPutAck()
}

func (fr *agentExec) mpFinishPutAck() {
	A := &fr.f.A
	if !fr.pkt.fsync.Nil() {
		fr.hold(A.Uncached+A.Instr(0.3)+A.Uncached, pcMPPutAckShip)
		return
	}
	fr.finish()
}

func (fr *agentExec) hwFinishPut() {
	if !fr.pkt.rsync.Nil() {
		fr.hold(fr.f.A.CacheMiss, pcHWPutRsync)
		return
	}
	fr.hwFinishPutAck()
}

func (fr *agentExec) hwFinishPutAck() {
	if !fr.pkt.fsync.Nil() {
		fr.hold(fr.f.A.AdapterOvh, pcHWPutAckShip)
		return
	}
	fr.finish()
}

// mpGetReqReply builds the GET reply: PIO for small transfers, the page
// streamer otherwise.
func (fr *agentExec) mpGetReqReply() {
	A := &fr.f.A
	pkt := fr.pkt
	if pkt.n <= A.PIOCutoff {
		// Build reply: header, read the source (miss + uncached), PIO
		// out, launch.
		fr.hold(A.Uncached+A.Instr(0.7)+A.AgentMiss+A.Uncached+fr.f.pio(pkt.n)+A.Uncached, pcMPGetDataShip)
		return
	}
	fr.hold(A.Uncached+A.Instr(0.8), pcMPGetPagesStart)
}

func (fr *agentExec) hwGetReqReply() {
	A := &fr.f.A
	pkt := fr.pkt
	if pkt.n <= A.PIOCutoff {
		fr.hold(A.AdapterOvh+A.CacheMiss+fr.f.pio(pkt.n), pcHWGetDataShip)
		return
	}
	fr.hold(A.AdapterOvh, pcHWGetPagesStart)
}

// deqTake finishes a DEQ request: copy the request out of the (about to
// be freed) packet, then hand the reply work to the requester's serving
// agent once a record is available. The TakeAsync closure allocates per
// DEQ.
func (fr *agentExec) deqTake(hw bool) {
	f := fr.f
	q, _ := f.Cl.Reg.Queue(fr.pkt.rq)
	box := &deqReply{req: *fr.pkt}
	work := machine.Work{TFn: mpDeqReplyWork, Arg: box}
	if hw {
		work.TFn = hwDeqReplyWork
	}
	q.TakeAsync(func(rec []byte) {
		box.rec = rec
		ag := f.agentForRank(box.req.to)
		if f.spans != nil {
			f.spans.Taken(box.req.span, ag.Name)
		}
		ag.Submit(work)
	})
	fr.finish()
}

func (fr *agentExec) shipDeqReply() {
	f := fr.f
	box := fr.box
	n := fr.nOut
	pkt := f.newPacket(fr.node)
	pkt.kind, pkt.span, pkt.from, pkt.to, pkt.n = pktDeqData, box.req.span, box.req.to, box.req.from, n
	pkt.issued, pkt.data, pkt.dst, pkt.fsync = box.req.issued, box.rec[:n], box.req.dst, box.req.fsync
	f.ship(fr.node, pkt)
	fr.finish()
}

// mpSend dispatches a decoded command: one hold sized per operation, then
// the matching ship state.
func (fr *agentExec) mpSend() {
	f := fr.f
	A := &f.A
	r := &fr.r
	switch r.kind {
	case OpPut, OpEnq:
		if r.kind == OpPut && r.n > A.PIOCutoff {
			fr.hold(A.Uncached+A.Instr(0.8), pcMPPutPages) // header + DMA setup
			return
		}
		// Header setup, read source data (miss + uncached), PIO the
		// payload into the output FIFO, launch. ENQ records always move by
		// PIO: queue entries are bounded small messages.
		fr.hold(A.Uncached+A.Instr(0.6)+A.AgentMiss+A.Uncached+f.pio(r.n)+A.Uncached, pcMPShipPIO)
	case OpGet:
		// Request packet: header only.
		fr.hold(A.Uncached+A.Instr(0.7)+A.Uncached, pcMPGetReqShip)
	case OpDeq:
		fr.hold(A.Uncached+A.Instr(0.7)+A.Uncached, pcMPDeqReqShip)
	}
}

// ---- page streaming (the agents' form of Fabric.sendPages) ----

// startPages begins streaming proto.n bytes from srcAddr page by page:
// pin (unless Prepinned), occupy the DMA engine, cut the page through to
// the wire — then continue at donePC.
func (fr *agentExec) startPages(proto packet, srcAddr memory.Addr, donePC int) {
	fr.proto, fr.srcAddr, fr.off, fr.donePC = proto, srcAddr, 0, donePC
	fr.pageLoop()
}

func (fr *agentExec) pageLoop() {
	A := &fr.f.A
	if fr.off >= fr.proto.n {
		fr.pc = fr.donePC
		fr.step()
		return
	}
	chunk := fr.proto.n - fr.off
	if chunk > A.PageSize {
		chunk = A.PageSize
	}
	fr.chunk = chunk
	if !A.Prepinned {
		fr.hold(2*A.PinPerPage, pcPagePinned)
		return
	}
	fr.pagePinned()
}

func (fr *agentExec) pagePinned() {
	fr.pc = pcPageDMADone
	fr.node.DMA.OccupyTask(fr.a.Task(), fr.chunk, fr.stepK)
}

func (fr *agentExec) pageDMADone() {
	f := fr.f
	pg := f.newPacket(fr.node)
	buf, pooled := pg.buf, pg.pooled
	*pg = fr.proto
	pg.buf, pg.pooled = buf, pooled
	pg.n = fr.chunk
	f.readBytesInto(pg, fr.srcAddr.Plus(fr.off), fr.chunk) // read after the DMA completes
	pg.dst = fr.proto.dst.Plus(fr.off)
	pg.last = fr.off+fr.chunk == fr.proto.n
	f.shipOverlapped(fr.node, pg, fr.off == 0)
	fr.off += fr.chunk
	fr.pageLoop()
}

// ---- work-item entry points (Work.TFn bodies; static functions so the
// work items themselves allocate nothing) ----

// mpServiceWork is one turn of the proxy's dispatch loop: scan, dequeue,
// decode, attach the user's address space, and dispatch to the send
// state.
func mpServiceWork(a *machine.Agent, _ any) {
	fr := a.Exec().(*agentExec)
	f := fr.f
	sc := f.scanners[fr.node.ID][fr.scanIdx]
	box, qi, ok := sc.Next()
	if !ok {
		a.WorkDone() // stale scan hint; the command was already consumed
		return
	}
	fr.node.Eng.Emit(trace.KDequeue, f.eps[sc.Owner(qi)].cmdqComp, 0)
	fr.take(box)
	A := &f.A
	// Dequeue entry (read miss), decode command and allocate a CCB,
	// vm_att to the user's space.
	fr.hold(A.AgentMiss+A.Instr(0.5)+A.VMAtt, pcMPSend)
}

// hwSendWork decodes the adapter command carried in the reqBox and holds
// the send-side cost of its operation.
func hwSendWork(a *machine.Agent, arg any) {
	fr := a.Exec().(*agentExec)
	box := arg.(*reqBox)
	fr.picked(box.r.span, 0, 0)
	fr.r = box.r
	fr.f.freeReqBox(fr.node, box)
	f := fr.f
	A := &f.A
	r := &fr.r
	switch r.kind {
	case OpPut, OpEnq:
		if r.kind == OpPut && r.n > A.PIOCutoff {
			fr.hold(A.AdapterOvh, pcHWPutPages)
			return
		}
		// Protocol engine occupancy plus reading the source buffer over
		// the bus.
		fr.hold(A.AdapterOvh+A.CacheMiss+f.pio(r.n), pcHWShipPIO)
	case OpGet:
		fr.hold(A.AdapterOvh, pcHWGetReqShip)
	case OpDeq:
		fr.hold(A.AdapterOvh, pcHWDeqReqShip)
	}
}

// mpRecvWork services a packet the proxy polled from the network input
// FIFO.
func mpRecvWork(a *machine.Agent, arg any) {
	fr := a.Exec().(*agentExec)
	pkt := arg.(*packet)
	fr.picked(pkt.span, 0, 0)
	fr.pkt = pkt
	f := fr.f
	A := &f.A
	switch pkt.kind {
	case pktPutData:
		// Read header (miss), decode/dispatch, vm_att, checks, read the
		// payload (uncached + PIO), copy to destination (write miss).
		fr.hold(A.CacheMiss+A.Instr(0.9)+A.VMAtt+A.Uncached+f.pio(pkt.n)+A.AgentMiss, pcMPPutDeposit)
	case pktPutPage:
		// DMA deposits the page; the proxy pays per-page bookkeeping.
		fr.hold(A.Instr(0.3)+A.AgentMiss, pcMPPutPage)
	case pktGetReq:
		fr.hold(A.CacheMiss+A.Instr(1.0)+A.VMAtt, pcMPGetReqDecoded)
	case pktGetData:
		// Reply: read header, find the CCB, vm_att, read payload, copy to
		// destination (write miss); the lsync write miss follows.
		fr.hold(A.CacheMiss+A.Instr(0.5)+A.VMAtt+A.Uncached+f.pio(pkt.n)+A.AgentMiss, pcMPGetDeposit)
	case pktGetPage:
		fr.hold(A.Instr(0.3)+A.AgentMiss, pcMPGetPageStep)
	case pktEnqData:
		// Like a PUT deposit plus the tail-pointer read/update and record
		// bookkeeping in the owner's queue.
		fr.hold(A.CacheMiss+A.Instr(0.9)+A.VMAtt+A.Uncached+f.pio(pkt.n)+2*A.CacheMiss+2*A.AgentMiss, pcMPEnqDeposit)
	case pktDeqReq:
		fr.hold(A.CacheMiss+A.Instr(0.8)+A.VMAtt, pcMPDeqReqTake)
	case pktDeqData:
		fr.hold(A.CacheMiss+A.Instr(0.5)+A.VMAtt+A.Uncached+f.pio(pkt.n)+A.AgentMiss, pcMPDeqDeposit)
	case pktAck:
		fr.hold(A.CacheMiss+A.Instr(0.3)+A.AgentMiss, pcMPAck)
	}
}

// hwRecvWork services an arriving packet on the adapter.
func hwRecvWork(a *machine.Agent, arg any) {
	fr := a.Exec().(*agentExec)
	pkt := arg.(*packet)
	fr.picked(pkt.span, 0, 0)
	fr.pkt = pkt
	f := fr.f
	A := &f.A
	switch pkt.kind {
	case pktPutData:
		fr.hold(A.AdapterOvh+f.pio(pkt.n)+A.CacheMiss, pcHWPutDeposit)
	case pktPutPage:
		fr.hold(A.Instr(0.1), pcHWPutPage)
	case pktGetReq:
		if !pkt.rsync.Nil() {
			fr.hold(A.CacheMiss, pcHWGetReqRsync)
			return
		}
		fr.hwGetReqReply()
	case pktGetData:
		fr.hold(A.AdapterOvh+f.pio(pkt.n)+A.CacheMiss, pcHWGetDeposit)
	case pktGetPage:
		fr.hold(A.Instr(0.1), pcHWGetPageStep)
	case pktEnqData:
		fr.hold(A.AdapterOvh+f.pio(pkt.n)+2*A.CacheMiss, pcHWEnqDeposit)
	case pktDeqReq:
		fr.hold(A.AdapterOvh, pcHWDeqReqTake)
	case pktDeqData:
		fr.hold(A.AdapterOvh+f.pio(pkt.n)+A.CacheMiss, pcHWDeqDeposit)
	case pktAck:
		fr.hold(A.AdapterOvh+A.CacheMiss, pcHWAck)
	}
}

// mpDeqReplyWork ships a dequeued record back to the requester.
func mpDeqReplyWork(a *machine.Agent, arg any) {
	fr := a.Exec().(*agentExec)
	box := arg.(*deqReply)
	fr.picked(box.req.span, 0, 0)
	fr.box = box
	n := box.req.n
	if len(box.rec) < n {
		n = len(box.rec)
	}
	fr.nOut = n
	A := &fr.f.A
	fr.hold(A.Uncached+A.Instr(0.5)+A.AgentMiss+fr.f.pio(n)+A.Uncached, pcMPDeqReplyShip)
}

func hwDeqReplyWork(a *machine.Agent, arg any) {
	fr := a.Exec().(*agentExec)
	box := arg.(*deqReply)
	fr.picked(box.req.span, 0, 0)
	fr.box = box
	n := box.req.n
	if len(box.rec) < n {
		n = len(box.rec)
	}
	fr.nOut = n
	A := &fr.f.A
	fr.hold(A.AdapterOvh+fr.f.pio(n), pcHWDeqReplyShip)
}
