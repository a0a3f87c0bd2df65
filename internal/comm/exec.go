package comm

import (
	"mproxy/internal/arch"
	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/trace"
)

// Agent protocol paths. Each agent carries one agentExec: the resident
// protocol frame its machine.Agent runs work items through. A work item
// is one turn of the agent's polling loop (Figure 5): it takes one
// command or one packet and runs it to completion, each cost an
// Agent.Hold(cost, pc) that parks the agent and resumes it at the named
// protocol state. One work item executes at a time per agent, which is
// what lets a single frame serve every item with zero steady-state
// allocation. The preset digests in internal/scenario/testdata pin every
// byte these paths render.
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
//
// Both run one protocol. The entry bodies, which charge the Section 4
// cost of decoding a command or a packet, are written once per design
// point (mpSend/hwSend, mpRecv/hwRecv); every state after them is shared,
// and where a shared state's cost differs between the two it comes from
// Fabric.costs.

// Work item kinds (machine.Agent.Submit).
const (
	workScan     uint8 = iota // MP: one scan turn over the proxy's own scanner
	workSteal                 // MP: a stolen scan turn; the operand is the victim's proxy index (a small int: boxing it allocates nothing)
	workSend                  // HW: an adapter command; the operand is its *reqBox
	workRecv                  // an arriving *packet
	workDeqReply              // a dequeued record to ship back; the operand is its *deqReply
)

// Protocol states: the program counters agentExec.Step resumes at.
const (
	// send side
	pcSend       = iota // MP: a decoded command (mpSend)
	pcShipPIO           // PUT/ENQ payload by PIO
	pcEnqSync           // ENQ lsync: the source buffer has been transmitted
	pcPutPages          // PUT payload by page streaming
	pcGetReqShip        // GET request
	pcDeqReqShip        // DEQ request
	pcStealScan         // MP: a stolen turn's scan, its penalty paid

	// receive side
	pcPutDeposit
	pcPutRsync
	pcPutAckShip
	pcPutPage
	pcGetReqDecoded // MP: a GET request decoded
	pcGetReqRsync
	pcGetDataShip
	pcGetPagesStart
	pcGetDeposit
	pcGetPageStep
	pcEnqDeposit
	pcDeqReqTake
	pcDeqReplyShip
	pcDeqDeposit
	pcSignalFsync // GET and DEQ completion, PUT acknowledgment

	// page streaming (startPages)
	pcPagePinned
	pcPageDMADone
)

// agentExec is one agent's protocol frame: the machine.Exec of its agent.
type agentExec struct {
	f        *Fabric
	a        *machine.Agent
	node     *machine.Node
	scanIdx  int    // index of the proxy's command-queue scanner on this node
	stealIdx int    // victim scanner index of the current stolen turn
	scanName string // trace name of the passes of scanner scanIdx
	steal    bool   // probe the sibling proxies when idle (the steal policy)

	r    request   // current send-side command
	pkt  *packet   // current receive-side packet (freed at finish)
	box  *deqReply // current DEQ reply operand
	nOut int       // DEQ reply payload size (min of requested and record)

	// Page-streaming loop state (startPages).
	proto   packet
	srcAddr memory.Addr
	off     int
	chunk   int
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

// Serve starts a work item's body.
func (fr *agentExec) Serve(kind uint8, arg any) {
	switch kind {
	case workScan:
		fr.scan(fr.scanIdx)
	case workSteal:
		// The victim's queue state is cold here: the stolen turn pays
		// the cross-queue penalty before it scans (see steal.go).
		fr.stealIdx = arg.(int)
		fr.a.Hold(fr.f.A.AgentMiss, pcStealScan)
	case workSend:
		box := arg.(*reqBox)
		fr.picked(box.r.span, 0, 0)
		fr.r = box.r
		fr.f.freeReqBox(fr.node, box)
		fr.hwSend()
	case workRecv:
		pkt := arg.(*packet)
		fr.picked(pkt.span, 0, 0)
		fr.pkt = pkt
		if fr.f.A.Kind == arch.CustomHW {
			fr.hwRecv()
			return
		}
		fr.mpRecv()
	case workDeqReply:
		box := arg.(*deqReply)
		fr.picked(box.req.span, 0, 0)
		fr.box = box
		fr.nOut = min(box.req.n, len(box.rec))
		fr.a.Hold(fr.f.costs.deqReply+fr.f.pio(fr.nOut), pcDeqReplyShip)
	}
}

// Step resumes the current work item at protocol state pc.
func (fr *agentExec) Step(pc int) {
	f := fr.f
	reg := f.Cl.Reg
	switch pc {
	// ---- send side ----
	case pcSend:
		fr.mpSend()
	case pcShipPIO:
		r := &fr.r
		f.ship(fr.node, f.dataPacket(fr.node, r))
		if r.kind == OpEnq && !r.fsync.Nil() {
			fr.a.Hold(f.costs.syncWrite, pcEnqSync)
			return
		}
		fr.finish()
	case pcEnqSync:
		reg.Signal(fr.r.fsync)
		fr.finish()
	case pcPutPages:
		fr.startPages(f.putHeader(pktPutPage, &fr.r), fr.r.local)
	case pcGetReqShip:
		f.ship(fr.node, f.getReqPacket(fr.node, &fr.r))
		fr.finish()
	case pcDeqReqShip:
		f.ship(fr.node, f.deqReqPacket(fr.node, &fr.r))
		fr.finish()
	case pcStealScan:
		fr.scan(fr.stealIdx)

	// ---- receive side ----
	case pcPutDeposit:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		fr.opDone(OpPut)
		fr.finishPut()
	case pcPutRsync:
		reg.Signal(fr.pkt.rsync)
		fr.finishPutAck()
	case pcPutAckShip:
		f.ship(fr.node, f.ackPacket(fr.node, fr.pkt))
		fr.finish()
	case pcPutPage:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		if fr.pkt.last {
			fr.opDone(OpPut)
			fr.finishPut()
			return
		}
		fr.finish()
	case pcGetReqDecoded:
		fr.getReqRsync()
	case pcGetReqRsync:
		reg.Signal(fr.pkt.rsync)
		fr.getReqReply()
	case pcGetDataShip:
		f.ship(fr.node, f.getDataPacket(fr.node, fr.pkt))
		fr.finish()
	case pcGetPagesStart:
		fr.startPages(replyHeader(pktGetPage, fr.pkt), fr.pkt.src)
	case pcGetDeposit:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		fr.opDone(OpGet)
		fr.a.Hold(f.costs.syncWrite, pcSignalFsync)
	case pcGetPageStep:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		if fr.pkt.last {
			fr.opDone(OpGet)
			fr.a.Hold(f.costs.syncWrite, pcSignalFsync)
			return
		}
		fr.finish()
	case pcEnqDeposit:
		f.depositQueue(fr.pkt.rq, fr.pkt.data)
		fr.opDone(OpEnq)
		fr.finish()
	case pcDeqReqTake:
		fr.deqTake()
	case pcDeqReplyShip:
		f.ship(fr.node, f.deqDataPacket(fr.node, &fr.box.req, fr.box.rec[:fr.nOut]))
		fr.finish()
	case pcDeqDeposit:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		fr.opDone(OpDeq)
		fr.a.Hold(f.costs.syncWrite, pcSignalFsync)
	case pcSignalFsync:
		reg.Signal(fr.pkt.fsync)
		fr.finish()

	// ---- page streaming ----
	case pcPagePinned:
		fr.pagePinned()
	case pcPageDMADone:
		fr.pageDMADone()

	default:
		panic("comm: agent woke at unknown pc")
	}
}

// Idle probes the sibling proxies for a turn to steal when the steal
// policy is on.
func (fr *agentExec) Idle() {
	if fr.steal {
		fr.f.trySteal(fr.node, fr.scanIdx)
	}
}

// Restart rebuilds the proxy's scanner after a crash (fault plane):
// queued commands survive, since they live in user memory, but the
// scanner's position and non-empty summary are rebuilt by reprobing
// every registered queue head.
func (fr *agentExec) Restart() {
	if fr.f.A.Kind == arch.Proxy {
		fr.f.scanners[fr.node.ID][fr.scanIdx].Restart()
	}
}

// ScanPass feeds every pass of the proxy's own scanner to the trace
// stream under the scanner's name (Emit is a no-op without a tracer) and
// keeps its probes for the pickup that follows it.
func (fr *agentExec) ScanPass(probes, headChecks int64, found bool) {
	fr.node.Eng.Emit(trace.KScan, fr.scanName, trace.ScanArg(probes, headChecks, found))
	if f := fr.f; f.spans != nil {
		f.pass.probes, f.pass.headChecks = probes, headChecks
	}
}

// scan is one turn of the proxy's dispatch loop over the node's scanner
// idx, its own or a stolen one: dequeue, decode, attach the user's
// address space, and go on to the send state. A turn that finds nothing
// retires: its hint was stale (the command was already consumed), or
// another proxy got there first.
func (fr *agentExec) scan(idx int) {
	f := fr.f
	sc := f.scanners[fr.node.ID][idx]
	box, qi, ok := sc.Next()
	if !ok {
		fr.finish()
		return
	}
	fr.node.Eng.Emit(trace.KDequeue, f.eps[sc.Owner(qi)].cmdqComp, 0)
	fr.take(box)
	A := &f.A
	// Dequeue entry (read miss), decode command and allocate a CCB,
	// vm_att to the user's space.
	fr.a.Hold(A.AgentMiss+A.Instr(0.5)+A.VMAtt, pcSend)
}

// finishPut completes a PUT deposit: signal the remote flag, then, when
// the sender asked for local completion, return an acknowledgment.
func (fr *agentExec) finishPut() {
	if !fr.pkt.rsync.Nil() {
		fr.a.Hold(fr.f.costs.syncWrite, pcPutRsync)
		return
	}
	fr.finishPutAck()
}

func (fr *agentExec) finishPutAck() {
	if !fr.pkt.fsync.Nil() {
		fr.a.Hold(fr.f.costs.ack, pcPutAckShip)
		return
	}
	fr.finish()
}

// getReqRsync signals a decoded GET request's remote flag, when it
// carries one, before the reply.
func (fr *agentExec) getReqRsync() {
	if !fr.pkt.rsync.Nil() {
		fr.a.Hold(fr.f.costs.syncWrite, pcGetReqRsync)
		return
	}
	fr.getReqReply()
}

// getReqReply builds the GET reply: PIO for small transfers, the page
// streamer otherwise.
func (fr *agentExec) getReqReply() {
	f := fr.f
	if n := fr.pkt.n; n <= f.A.PIOCutoff {
		fr.a.Hold(f.costs.getReplyPIO+f.pio(n), pcGetDataShip)
		return
	}
	fr.a.Hold(f.costs.getReplyDMA, pcGetPagesStart)
}

// deqTake finishes a DEQ request: copy the request out of the (about to
// be freed) packet, then hand the reply work to the requester's serving
// agent once a record is available. The TakeAsync closure allocates per
// DEQ.
func (fr *agentExec) deqTake() {
	f := fr.f
	q, _ := f.Cl.Reg.Queue(fr.pkt.rq)
	box := &deqReply{req: *fr.pkt}
	q.TakeAsync(func(rec []byte) {
		box.rec = rec
		ag := f.agentForRank(box.req.to)
		if f.spans != nil {
			f.spans.Taken(box.req.span, ag.Name)
		}
		ag.Submit(workDeqReply, box)
	})
	fr.finish()
}

// ---- entry bodies: the Section 4 cost of each design point ----

// mpSend dispatches a decoded command: one hold sized per operation, then
// the matching ship state.
func (fr *agentExec) mpSend() {
	f := fr.f
	A := &f.A
	r := &fr.r
	switch r.kind {
	case OpPut, OpEnq:
		if r.kind == OpPut && r.n > A.PIOCutoff {
			fr.a.Hold(A.Uncached+A.Instr(0.8), pcPutPages) // header + DMA setup
			return
		}
		// Header setup, read source data (miss + uncached), PIO the
		// payload into the output FIFO, launch. ENQ records always move by
		// PIO: queue entries are bounded small messages.
		fr.a.Hold(A.Uncached+A.Instr(0.6)+A.AgentMiss+A.Uncached+f.pio(r.n)+A.Uncached, pcShipPIO)
	case OpGet:
		// Request packet: header only.
		fr.a.Hold(A.Uncached+A.Instr(0.7)+A.Uncached, pcGetReqShip)
	case OpDeq:
		fr.a.Hold(A.Uncached+A.Instr(0.7)+A.Uncached, pcDeqReqShip)
	}
}

// hwSend holds the adapter's send-side cost of the decoded command.
func (fr *agentExec) hwSend() {
	f := fr.f
	A := &f.A
	r := &fr.r
	switch r.kind {
	case OpPut, OpEnq:
		if r.kind == OpPut && r.n > A.PIOCutoff {
			fr.a.Hold(A.AdapterOvh, pcPutPages)
			return
		}
		// Protocol engine occupancy plus reading the source buffer over
		// the bus.
		fr.a.Hold(A.AdapterOvh+A.CacheMiss+f.pio(r.n), pcShipPIO)
	case OpGet:
		fr.a.Hold(A.AdapterOvh, pcGetReqShip)
	case OpDeq:
		fr.a.Hold(A.AdapterOvh, pcDeqReqShip)
	}
}

// mpRecv services a packet the proxy polled from the network input FIFO.
func (fr *agentExec) mpRecv() {
	f := fr.f
	A := &f.A
	pkt := fr.pkt
	switch pkt.kind {
	case pktPutData:
		// Read header (miss), decode/dispatch, vm_att, checks, read the
		// payload (uncached + PIO), copy to destination (write miss).
		fr.a.Hold(A.CacheMiss+A.Instr(0.9)+A.VMAtt+A.Uncached+f.pio(pkt.n)+A.AgentMiss, pcPutDeposit)
	case pktPutPage:
		// DMA deposits the page; the proxy pays per-page bookkeeping.
		fr.a.Hold(A.Instr(0.3)+A.AgentMiss, pcPutPage)
	case pktGetReq:
		fr.a.Hold(A.CacheMiss+A.Instr(1.0)+A.VMAtt, pcGetReqDecoded)
	case pktGetData:
		// Reply: read header, find the CCB, vm_att, read payload, copy to
		// destination (write miss); the lsync write miss follows.
		fr.a.Hold(A.CacheMiss+A.Instr(0.5)+A.VMAtt+A.Uncached+f.pio(pkt.n)+A.AgentMiss, pcGetDeposit)
	case pktGetPage:
		fr.a.Hold(A.Instr(0.3)+A.AgentMiss, pcGetPageStep)
	case pktEnqData:
		// Like a PUT deposit plus the tail-pointer read/update and record
		// bookkeeping in the owner's queue.
		fr.a.Hold(A.CacheMiss+A.Instr(0.9)+A.VMAtt+A.Uncached+f.pio(pkt.n)+2*A.CacheMiss+2*A.AgentMiss, pcEnqDeposit)
	case pktDeqReq:
		fr.a.Hold(A.CacheMiss+A.Instr(0.8)+A.VMAtt, pcDeqReqTake)
	case pktDeqData:
		fr.a.Hold(A.CacheMiss+A.Instr(0.5)+A.VMAtt+A.Uncached+f.pio(pkt.n)+A.AgentMiss, pcDeqDeposit)
	case pktAck:
		fr.a.Hold(A.CacheMiss+A.Instr(0.3)+A.AgentMiss, pcSignalFsync)
	}
}

// hwRecv services an arriving packet on the adapter. A GET request needs
// no decoding hold: the engine goes straight to its remote flag.
func (fr *agentExec) hwRecv() {
	f := fr.f
	A := &f.A
	pkt := fr.pkt
	switch pkt.kind {
	case pktPutData:
		fr.a.Hold(A.AdapterOvh+f.pio(pkt.n)+A.CacheMiss, pcPutDeposit)
	case pktPutPage:
		fr.a.Hold(A.Instr(0.1), pcPutPage)
	case pktGetReq:
		fr.getReqRsync()
	case pktGetData:
		fr.a.Hold(A.AdapterOvh+f.pio(pkt.n)+A.CacheMiss, pcGetDeposit)
	case pktGetPage:
		fr.a.Hold(A.Instr(0.1), pcGetPageStep)
	case pktEnqData:
		fr.a.Hold(A.AdapterOvh+f.pio(pkt.n)+2*A.CacheMiss, pcEnqDeposit)
	case pktDeqReq:
		fr.a.Hold(A.AdapterOvh, pcDeqReqTake)
	case pktDeqData:
		fr.a.Hold(A.AdapterOvh+f.pio(pkt.n)+A.CacheMiss, pcDeqDeposit)
	case pktAck:
		fr.a.Hold(A.AdapterOvh+A.CacheMiss, pcSignalFsync)
	}
}

// ---- page streaming (the agents' form of Fabric.sendPages) ----

// startPages streams proto.n bytes from srcAddr page by page: pin
// (unless Prepinned), occupy the DMA engine, cut the page through to the
// wire; the work item finishes after the last page.
func (fr *agentExec) startPages(proto packet, srcAddr memory.Addr) {
	fr.proto, fr.srcAddr, fr.off = proto, srcAddr, 0
	fr.pageLoop()
}

func (fr *agentExec) pageLoop() {
	A := &fr.f.A
	if fr.off >= fr.proto.n {
		fr.finish()
		return
	}
	fr.chunk = min(fr.proto.n-fr.off, A.PageSize)
	if !A.Prepinned {
		fr.a.Hold(2*A.PinPerPage, pcPagePinned)
		return
	}
	fr.pagePinned()
}

func (fr *agentExec) pagePinned() {
	fr.a.Occupy(fr.node.DMA, fr.chunk, pcPageDMADone)
}

func (fr *agentExec) pageDMADone() {
	fr.f.shipPage(fr.node, &fr.proto, fr.srcAddr, fr.off, fr.chunk)
	fr.off += fr.chunk
	fr.pageLoop()
}
