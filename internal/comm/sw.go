package comm

import (
	"fmt"

	"mproxy/internal/machine"
	"mproxy/internal/sim"
)

// System-call paths. Outgoing communication is a system call executed on
// the issuing compute processor (kernel protocol included); incoming
// messages interrupt the destination processor and the handler steals
// compute cycles from whatever is running there. There is no offload:
// every microsecond of protocol shows up on a compute processor, which is
// why SW1's message overhead dominates Figure 8's communication-intensive
// applications.

// swSend runs inline on the user's process — the caller is inside the
// kernel until the data has been handed to the adapter (no overlap).
// Packets come from the sending node engine's pool (newPacket) and are
// released by the interrupt handler that consumes them (swIntr.finish).
func (f *Fabric) swSend(ep *Endpoint, r request) {
	A := &f.A
	node := ep.cpu.Node
	base := A.SyscallOvh + A.ProtocolOvh
	switch r.kind {
	case OpPut, OpEnq:
		if r.kind == OpPut && r.n > A.PIOCutoff {
			// The kernel pins and DMAs page by page with the caller
			// blocked: a communication operation may block in the kernel,
			// preventing overlap of communication with computation.
			ep.cpu.Compute(ep.proc, base)
			f.sendPages(ep.proc, node, f.putHeader(pktPutPage, &r), r.local)
		} else {
			ep.cpu.Compute(ep.proc, base+A.CacheMiss+2*A.Uncached+f.pio(r.n))
			f.ship(node, f.dataPacket(node, &r))
		}
		if r.kind == OpEnq {
			f.Cl.Reg.Signal(r.fsync)
		}
	case OpGet:
		ep.cpu.Compute(ep.proc, base+2*A.Uncached)
		f.ship(node, f.getReqPacket(node, &r))
	case OpDeq:
		ep.cpu.Compute(ep.proc, base+2*A.Uncached)
		f.ship(node, f.deqReqPacket(node, &r))
	}
}

// swIntr is one interrupt handler in progress on a destination CPU: the
// packet it services, whose effects materialize when the handler's cost
// has elapsed. Frames recycle through the destination engine's pool, so
// the receive path schedules without allocating.
type swIntr struct {
	f    *Fabric
	dest *machine.Node
	pkt  *packet
	run  func() // prebuilt fr.finish
}

// swAfter charges cost to cpu as interrupt time and finishes servicing
// pkt when it has elapsed.
func (f *Fabric) swAfter(cpu *machine.CPU, dest *machine.Node, pkt *packet, cost sim.Time) {
	fr := f.pools[dest.ID].intr.Get()
	if fr == nil {
		fr = &swIntr{}
		fr.run = fr.finish
	}
	fr.f, fr.dest, fr.pkt = f, dest, pkt
	cpu.Interrupt(cost)
	dest.Eng.Schedule(cost, fr.run)
}

func (fr *swIntr) finish() {
	f, dest, pkt := fr.f, fr.dest, fr.pkt
	fr.f, fr.dest, fr.pkt = nil, nil, nil
	f.pools[dest.ID].intr.Put(fr)
	f.swFinish(dest, pkt)
	f.freePacket(dest, pkt)
}

// swRecv services an arriving packet: the destination rank's CPU takes an
// interrupt, the kernel handler runs for the service cost, and the effects
// (deposit, flag, reply) materialize when the handler finishes.
func (f *Fabric) swRecv(dest *machine.Node, pkt *packet) {
	A := &f.A
	cpu := f.Cl.CPUs[pkt.to]
	if cpu.Node != dest {
		panic(fmt.Sprintf("comm: packet for rank %d delivered to node %d", pkt.to, dest.ID))
	}
	// Data deposits happen at packet arrival so that same-channel messages
	// observe FIFO order regardless of their differing handler costs;
	// synchronization flags and replies materialize only after the handler
	// cost (swFinish), which is what latency measurements observe.
	var cost sim.Time
	switch pkt.kind {
	case pktPutData:
		f.depositBytes(pkt.dst, pkt.data)
		cost = A.InterruptOvh + A.ProtocolOvh + f.pio(pkt.n) + 2*A.CacheMiss
	case pktPutPage, pktGetPage:
		f.depositBytes(pkt.dst, pkt.data)
		cost = A.Instr(0.1)
		if pkt.last {
			cost += A.InterruptOvh + A.CacheMiss
		}
	case pktGetReq:
		cost = A.InterruptOvh + A.ProtocolOvh
		if pkt.n <= A.PIOCutoff {
			cost += A.CacheMiss + f.pio(pkt.n) + 2*A.Uncached
		}
	case pktGetData, pktDeqData:
		f.depositBytes(pkt.dst, pkt.data)
		cost = A.InterruptOvh + A.ProtocolOvh + f.pio(pkt.n) + 2*A.CacheMiss
	case pktEnqData:
		// The interrupt handler deposits the record into the owner's
		// queue buffer; the owner pays the kernel crossing when it
		// dequeues (Recv / drain).
		cost = A.InterruptOvh + A.ProtocolOvh + f.pio(pkt.n) + 3*A.CacheMiss
	case pktDeqReq:
		cost = A.InterruptOvh + A.ProtocolOvh
	case pktAck:
		cost = A.InterruptOvh + A.CacheMiss
	default:
		return
	}
	f.swAfter(cpu, dest, pkt, cost)
}

// swFinish applies a serviced packet's effects once its interrupt
// handler has run. pkt is released when it returns, so anything that
// outlives the call copies what it needs.
func (f *Fabric) swFinish(dest *machine.Node, pkt *packet) {
	A := &f.A
	reg := f.Cl.Reg
	switch pkt.kind {
	case pktPutData:
		f.opDone(dest, OpPut, pkt.issued, pkt.span, "engine")
		reg.Signal(pkt.rsync)
		f.swAck(dest, pkt)
	case pktPutPage:
		if pkt.last {
			f.opDone(dest, OpPut, pkt.issued, pkt.span, "engine")
			reg.Signal(pkt.rsync)
			f.swAck(dest, pkt)
		}
	case pktGetReq:
		reg.Signal(pkt.rsync)
		if pkt.n <= A.PIOCutoff {
			f.ship(dest, f.getDataPacket(dest, pkt))
			return
		}
		// A transient kernel thread streams the pinned pages out; like
		// the paper's SW1 model, this is generous to SW — the stream
		// itself does not steal further compute cycles.
		req := *pkt
		f.Cl.Eng.Spawn(fmt.Sprintf("swdma-get-%d", req.from), func(p *sim.Proc) {
			f.sendPages(p, dest, replyHeader(pktGetPage, &req), req.src)
		})
	case pktGetData:
		f.opDone(dest, OpGet, pkt.issued, pkt.span, "engine")
		reg.Signal(pkt.fsync)
	case pktGetPage:
		if pkt.last {
			f.opDone(dest, OpGet, pkt.issued, pkt.span, "engine")
			reg.Signal(pkt.fsync)
		}
	case pktEnqData:
		f.depositQueue(pkt.rq, pkt.data)
		f.opDone(dest, OpEnq, pkt.issued, pkt.span, "engine")
	case pktDeqReq:
		req := *pkt
		cpu := f.Cl.CPUs[req.to]
		q, _ := reg.Queue(req.rq)
		q.TakeAsync(func(rec []byte) {
			n := min(req.n, len(rec))
			// The reply is sent from kernel context on the owner's CPU.
			cost := A.ProtocolOvh + f.pio(n)
			cpu.Interrupt(cost)
			f.Cl.Eng.Schedule(cost, func() {
				f.ship(dest, f.deqDataPacket(dest, &req, rec[:n]))
			})
		})
	case pktDeqData:
		f.opDone(dest, OpDeq, pkt.issued, pkt.span, "engine")
		reg.Signal(pkt.fsync)
	case pktAck:
		reg.Signal(pkt.fsync)
	}
}

// swAck returns a PUT confirmation from kernel interrupt context.
func (f *Fabric) swAck(node *machine.Node, pkt *packet) {
	if pkt.fsync.Nil() {
		return
	}
	f.ship(node, f.ackPacket(node, pkt))
}
