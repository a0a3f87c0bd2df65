package comm

import (
	"mproxy/internal/machine"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// Message-proxy paths. The proxy is the node's Agent; every work item
// below corresponds to one turn of the Figure 5 dispatch loop, with costs
// taken from the Section 4 latency model: cache misses on command-queue
// entries and user buffers (AgentMiss, reduced by MP2's cache-update
// primitive), uncached FIFO accesses (U), cross-memory attaches (V), fixed
// instruction sequences scaled by the proxy's speed (us/S), and the polling
// notice delay (P) charged by the Agent when it was idle.

// proxyServiceOne handles one user command: scan the registered command
// queues round-robin, dequeue, decode, attach the user's address space, and
// dispatch to the send routine.
func (f *Fabric) proxyServiceOne(ap *sim.Proc, node *machine.Node, idx int) {
	r, qi, ok := f.scanners[node.ID][idx].Next()
	if !ok {
		return // stale scan hint; the command was already consumed
	}
	node.Eng.Emit(trace.KDequeue, f.cmdqNames[node.ID][idx][qi], 0)
	A := f.A
	// Dequeue entry (read miss), decode command and allocate a CCB,
	// vm_att to the user's space.
	ap.Hold(A.AgentMiss + A.Instr(0.5) + A.VMAtt)
	f.mpSend(ap, node, r)
}

func (f *Fabric) mpSend(ap *sim.Proc, node *machine.Node, r request) {
	A := f.A
	to := f.targetRank(&r)
	switch r.kind {
	case OpPut, OpEnq:
		kind := pktPutData
		if r.kind == OpEnq {
			kind = pktEnqData
		}
		if r.kind == OpPut && r.n > A.PIOCutoff {
			ap.Hold(A.Uncached + A.Instr(0.8)) // header + DMA setup
			f.sendPages(ap, node, packet{kind: pktPutPage, from: r.from, to: to, n: r.n,
				issued: r.issued, dst: r.remote, fsync: r.fsync, rsync: r.rsync}, r.local)
		} else {
			// Header setup, read source data (miss + uncached), PIO the
			// payload into the output FIFO, launch. ENQ records always
			// move by PIO: queue entries are bounded small messages.
			ap.Hold(A.Uncached + A.Instr(0.6) + A.AgentMiss + A.Uncached + f.pio(r.n) + A.Uncached)
			f.ship(node, &packet{kind: kind, from: r.from, to: to, n: r.n,
				issued: r.issued, data: f.readSource(&r), dst: r.remote, rq: r.rq, fsync: r.fsync, rsync: r.rsync})
		}
		if r.kind == OpEnq && !r.fsync.Nil() {
			// ENQ lsync: the source buffer has been transmitted.
			ap.Hold(A.AgentMiss)
			f.Cl.Reg.Signal(r.fsync)
		}
	case OpGet:
		// Request packet: header only.
		ap.Hold(A.Uncached + A.Instr(0.7) + A.Uncached)
		f.ship(node, &packet{kind: pktGetReq, from: r.from, to: to, n: r.n,
			issued: r.issued, src: r.remote, dst: r.local, fsync: r.fsync, rsync: r.rsync})
	case OpDeq:
		ap.Hold(A.Uncached + A.Instr(0.7) + A.Uncached)
		f.ship(node, &packet{kind: pktDeqReq, from: r.from, to: to, n: r.n,
			issued: r.issued, rq: r.rq, dst: r.local, fsync: r.fsync})
	}
}

// mpRecv handles a packet polled from the network input FIFO.
func (f *Fabric) mpRecv(ap *sim.Proc, node *machine.Node, pkt *packet) {
	A := f.A
	reg := f.Cl.Reg
	switch pkt.kind {
	case pktPutData:
		// Read header (miss), decode/dispatch, vm_att, checks, read the
		// payload (uncached + PIO), copy to destination (write miss).
		ap.Hold(A.CacheMiss + A.Instr(0.9) + A.VMAtt + A.Uncached + f.pio(pkt.n) + A.AgentMiss)
		f.depositBytes(pkt.dst, pkt.data)
		f.opDone(node, OpPut, pkt.issued)
		f.finishPut(ap, node, pkt)
	case pktPutPage:
		// DMA deposits the page; the proxy pays per-page bookkeeping.
		ap.Hold(A.Instr(0.3) + A.AgentMiss)
		f.depositBytes(pkt.dst, pkt.data)
		if pkt.last {
			f.opDone(node, OpPut, pkt.issued)
			f.finishPut(ap, node, pkt)
		}
	case pktGetReq:
		ap.Hold(A.CacheMiss + A.Instr(1.0) + A.VMAtt)
		if !pkt.rsync.Nil() {
			ap.Hold(A.AgentMiss)
			reg.Signal(pkt.rsync)
		}
		if pkt.n <= A.PIOCutoff {
			// Build reply: header, read the source (miss + uncached), PIO
			// out, launch.
			ap.Hold(A.Uncached + A.Instr(0.7) + A.AgentMiss + A.Uncached + f.pio(pkt.n) + A.Uncached)
			f.ship(node, &packet{kind: pktGetData, from: pkt.to, to: pkt.from, n: pkt.n,
				issued: pkt.issued, data: f.readBytes(pkt.src, pkt.n), dst: pkt.dst, fsync: pkt.fsync})
		} else {
			ap.Hold(A.Uncached + A.Instr(0.8))
			f.sendPages(ap, node, packet{kind: pktGetPage, from: pkt.to, to: pkt.from, n: pkt.n,
				issued: pkt.issued, dst: pkt.dst, fsync: pkt.fsync}, pkt.src)
		}
	case pktGetData:
		// Reply: read header, find the CCB, vm_att, read payload, copy to
		// destination (write miss), set lsync (write miss).
		ap.Hold(A.CacheMiss + A.Instr(0.5) + A.VMAtt + A.Uncached + f.pio(pkt.n) + A.AgentMiss)
		f.depositBytes(pkt.dst, pkt.data)
		f.opDone(node, OpGet, pkt.issued)
		ap.Hold(A.AgentMiss)
		reg.Signal(pkt.fsync)
	case pktGetPage:
		ap.Hold(A.Instr(0.3) + A.AgentMiss)
		f.depositBytes(pkt.dst, pkt.data)
		if pkt.last {
			f.opDone(node, OpGet, pkt.issued)
			ap.Hold(A.AgentMiss)
			reg.Signal(pkt.fsync)
		}
	case pktEnqData:
		// Like a PUT deposit plus the tail-pointer read/update and record
		// bookkeeping in the owner's queue.
		ap.Hold(A.CacheMiss + A.Instr(0.9) + A.VMAtt + A.Uncached + f.pio(pkt.n) + 2*A.CacheMiss + 2*A.AgentMiss)
		f.depositQueue(pkt.rq, pkt.data)
		f.opDone(node, OpEnq, pkt.issued)
	case pktDeqReq:
		ap.Hold(A.CacheMiss + A.Instr(0.8) + A.VMAtt)
		q, _ := reg.Queue(pkt.rq)
		req := *pkt
		q.TakeAsync(func(rec []byte) {
			f.agentForRank(req.to).Submit(machine.Work{Fn: func(ap2 *sim.Proc) {
				n := req.n
				if len(rec) < n {
					n = len(rec)
				}
				ap2.Hold(A.Uncached + A.Instr(0.5) + A.AgentMiss + f.pio(n) + A.Uncached)
				f.ship(node, &packet{kind: pktDeqData, from: req.to, to: req.from, n: n,
					issued: req.issued, data: rec[:n], dst: req.dst, fsync: req.fsync})
			}})
		})
	case pktDeqData:
		ap.Hold(A.CacheMiss + A.Instr(0.5) + A.VMAtt + A.Uncached + f.pio(pkt.n) + A.AgentMiss)
		f.depositBytes(pkt.dst, pkt.data)
		f.opDone(node, OpDeq, pkt.issued)
		ap.Hold(A.AgentMiss)
		reg.Signal(pkt.fsync)
	case pktAck:
		ap.Hold(A.CacheMiss + A.Instr(0.3) + A.AgentMiss)
		reg.Signal(pkt.fsync)
	}
}

// finishPut signals the remote flag and, when the sender asked for local
// completion, returns an acknowledgment.
func (f *Fabric) finishPut(ap *sim.Proc, node *machine.Node, pkt *packet) {
	A := f.A
	if !pkt.rsync.Nil() {
		ap.Hold(A.AgentMiss)
		f.Cl.Reg.Signal(pkt.rsync)
	}
	if !pkt.fsync.Nil() {
		ap.Hold(A.Uncached + A.Instr(0.3) + A.Uncached)
		f.ship(node, &packet{kind: pktAck, from: pkt.to, to: pkt.from, fsync: pkt.fsync})
	}
}
