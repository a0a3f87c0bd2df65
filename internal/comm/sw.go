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
func (f *Fabric) swSend(ep *Endpoint, r request) {
	A := f.A
	node := ep.cpu.Node
	to := f.targetRank(&r)
	base := A.SyscallOvh + A.ProtocolOvh
	switch r.kind {
	case OpPut, OpEnq:
		kind := pktPutData
		if r.kind == OpEnq {
			kind = pktEnqData
		}
		if r.kind == OpPut && r.n > A.PIOCutoff {
			// The kernel pins and DMAs page by page with the caller
			// blocked: a communication operation may block in the kernel,
			// preventing overlap of communication with computation.
			ep.cpu.Compute(ep.proc, base)
			f.sendPages(ep.proc, node, packet{kind: pktPutPage, from: r.from, to: to, n: r.n,
				issued: r.issued, dst: r.remote, fsync: r.fsync, rsync: r.rsync}, r.local)
		} else {
			ep.cpu.Compute(ep.proc, base+A.CacheMiss+2*A.Uncached+f.pio(r.n))
			f.ship(node, &packet{kind: kind, from: r.from, to: to, n: r.n,
				issued: r.issued, data: f.readSource(&r), dst: r.remote, rq: r.rq, fsync: r.fsync, rsync: r.rsync})
		}
		if r.kind == OpEnq {
			f.Cl.Reg.Signal(r.fsync)
		}
	case OpGet:
		ep.cpu.Compute(ep.proc, base+2*A.Uncached)
		f.ship(node, &packet{kind: pktGetReq, from: r.from, to: to, n: r.n,
			issued: r.issued, src: r.remote, dst: r.local, fsync: r.fsync, rsync: r.rsync})
	case OpDeq:
		ep.cpu.Compute(ep.proc, base+2*A.Uncached)
		f.ship(node, &packet{kind: pktDeqReq, from: r.from, to: to, n: r.n,
			issued: r.issued, rq: r.rq, dst: r.local, fsync: r.fsync})
	}
}

// swRecv services an arriving packet: the destination rank's CPU takes an
// interrupt, the kernel handler runs for the service cost, and the effects
// (deposit, flag, reply) materialize when the handler finishes.
func (f *Fabric) swRecv(dest *machine.Node, pkt *packet) {
	A := f.A
	reg := f.Cl.Reg
	cpu := f.Cl.CPUs[pkt.to]
	if cpu.Node != dest {
		panic(fmt.Sprintf("comm: packet for rank %d delivered to node %d", pkt.to, dest.ID))
	}
	after := func(cost sim.Time, fn func()) {
		cpu.Interrupt(cost)
		f.Cl.Eng.Schedule(cost, fn)
	}
	// Data deposits happen at packet arrival so that same-channel messages
	// observe FIFO order regardless of their differing handler costs;
	// synchronization flags and replies materialize only after the handler
	// cost, which is what latency measurements observe.
	switch pkt.kind {
	case pktPutData:
		f.depositBytes(pkt.dst, pkt.data)
		after(A.InterruptOvh+A.ProtocolOvh+f.pio(pkt.n)+2*A.CacheMiss, func() {
			f.opDone(dest, OpPut, pkt.issued)
			reg.Signal(pkt.rsync)
			f.swAck(dest, pkt)
		})
	case pktPutPage:
		f.depositBytes(pkt.dst, pkt.data)
		cost := A.Instr(0.1)
		if pkt.last {
			cost += A.InterruptOvh + A.CacheMiss
		}
		after(cost, func() {
			if pkt.last {
				f.opDone(dest, OpPut, pkt.issued)
				reg.Signal(pkt.rsync)
				f.swAck(dest, pkt)
			}
		})
	case pktGetReq:
		if pkt.n <= A.PIOCutoff {
			after(A.InterruptOvh+A.ProtocolOvh+A.CacheMiss+f.pio(pkt.n)+2*A.Uncached, func() {
				reg.Signal(pkt.rsync)
				f.ship(dest, &packet{kind: pktGetData, from: pkt.to, to: pkt.from, n: pkt.n,
					issued: pkt.issued, data: f.readBytes(pkt.src, pkt.n), dst: pkt.dst, fsync: pkt.fsync})
			})
		} else {
			req := *pkt
			after(A.InterruptOvh+A.ProtocolOvh, func() {
				reg.Signal(req.rsync)
				// A transient kernel thread streams the pinned pages out;
				// like the paper's SW1 model, this is generous to SW —
				// the stream itself does not steal further compute cycles.
				f.Cl.Eng.Spawn(fmt.Sprintf("swdma-get-%d", req.from), func(p *sim.Proc) {
					f.sendPages(p, dest, packet{kind: pktGetPage, from: req.to, to: req.from,
						n: req.n, issued: req.issued, dst: req.dst, fsync: req.fsync}, req.src)
				})
			})
		}
	case pktGetData:
		f.depositBytes(pkt.dst, pkt.data)
		after(A.InterruptOvh+A.ProtocolOvh+f.pio(pkt.n)+2*A.CacheMiss, func() {
			f.opDone(dest, OpGet, pkt.issued)
			reg.Signal(pkt.fsync)
		})
	case pktGetPage:
		f.depositBytes(pkt.dst, pkt.data)
		cost := A.Instr(0.1)
		if pkt.last {
			cost += A.InterruptOvh + A.CacheMiss
		}
		after(cost, func() {
			if pkt.last {
				f.opDone(dest, OpGet, pkt.issued)
				reg.Signal(pkt.fsync)
			}
		})
	case pktEnqData:
		// The interrupt handler deposits the record into the owner's
		// queue buffer; the owner pays the kernel crossing when it
		// dequeues (Recv / drain).
		after(A.InterruptOvh+A.ProtocolOvh+f.pio(pkt.n)+3*A.CacheMiss, func() {
			f.depositQueue(pkt.rq, pkt.data)
			f.opDone(dest, OpEnq, pkt.issued)
		})
	case pktDeqReq:
		req := *pkt
		after(A.InterruptOvh+A.ProtocolOvh, func() {
			q, _ := reg.Queue(req.rq)
			q.TakeAsync(func(rec []byte) {
				n := req.n
				if len(rec) < n {
					n = len(rec)
				}
				// The reply is sent from kernel context on the owner's CPU.
				cpu.Interrupt(A.ProtocolOvh + f.pio(n))
				f.Cl.Eng.Schedule(A.ProtocolOvh+f.pio(n), func() {
					f.ship(dest, &packet{kind: pktDeqData, from: req.to, to: req.from, n: n,
						issued: req.issued, data: rec[:n], dst: req.dst, fsync: req.fsync})
				})
			})
		})
	case pktDeqData:
		f.depositBytes(pkt.dst, pkt.data)
		after(A.InterruptOvh+A.ProtocolOvh+f.pio(pkt.n)+2*A.CacheMiss, func() {
			f.opDone(dest, OpDeq, pkt.issued)
			reg.Signal(pkt.fsync)
		})
	case pktAck:
		after(A.InterruptOvh+A.CacheMiss, func() {
			reg.Signal(pkt.fsync)
		})
	}
}

// swAck returns a PUT confirmation from kernel interrupt context.
func (f *Fabric) swAck(node *machine.Node, pkt *packet) {
	if pkt.fsync.Nil() {
		return
	}
	f.ship(node, &packet{kind: pktAck, from: pkt.to, to: pkt.from, fsync: pkt.fsync})
}
