package comm

import (
	"mproxy/internal/machine"
	"mproxy/internal/sim"
)

// Custom-hardware paths. The node Agent models the adapter's protocol
// engine (its message input and output logic); protection comes from
// virtual-memory mapping, so there are no vm_att calls, no polling delay
// and no page pinning — commands traverse the memory bus and the hardware
// engine continuously consumes messages from the network input.

func (f *Fabric) hwSend(ap *sim.Proc, node *machine.Node, r request) {
	A := f.A
	to := f.targetRank(&r)
	switch r.kind {
	case OpPut, OpEnq:
		kind := pktPutData
		if r.kind == OpEnq {
			kind = pktEnqData
		}
		if r.kind == OpPut && r.n > A.PIOCutoff {
			ap.Hold(A.AdapterOvh)
			f.sendPages(ap, node, packet{kind: pktPutPage, from: r.from, to: to, n: r.n,
				issued: r.issued, dst: r.remote, fsync: r.fsync, rsync: r.rsync}, r.local)
		} else {
			// Protocol engine occupancy plus reading the source buffer
			// over the bus.
			ap.Hold(A.AdapterOvh + A.CacheMiss + f.pio(r.n))
			f.ship(node, &packet{kind: kind, from: r.from, to: to, n: r.n,
				issued: r.issued, data: f.readSource(&r), dst: r.remote, rq: r.rq, fsync: r.fsync, rsync: r.rsync})
		}
		if r.kind == OpEnq && !r.fsync.Nil() {
			ap.Hold(A.CacheMiss)
			f.Cl.Reg.Signal(r.fsync)
		}
	case OpGet:
		ap.Hold(A.AdapterOvh)
		f.ship(node, &packet{kind: pktGetReq, from: r.from, to: to, n: r.n,
			issued: r.issued, src: r.remote, dst: r.local, fsync: r.fsync, rsync: r.rsync})
	case OpDeq:
		ap.Hold(A.AdapterOvh)
		f.ship(node, &packet{kind: pktDeqReq, from: r.from, to: to, n: r.n,
			issued: r.issued, rq: r.rq, dst: r.local, fsync: r.fsync})
	}
}

func (f *Fabric) hwRecv(ap *sim.Proc, node *machine.Node, pkt *packet) {
	A := f.A
	reg := f.Cl.Reg
	switch pkt.kind {
	case pktPutData:
		ap.Hold(A.AdapterOvh + f.pio(pkt.n) + A.CacheMiss)
		f.depositBytes(pkt.dst, pkt.data)
		f.opDone(node, OpPut, pkt.issued)
		f.hwFinishPut(ap, node, pkt)
	case pktPutPage:
		ap.Hold(A.Instr(0.1))
		f.depositBytes(pkt.dst, pkt.data)
		if pkt.last {
			f.opDone(node, OpPut, pkt.issued)
			f.hwFinishPut(ap, node, pkt)
		}
	case pktGetReq:
		if !pkt.rsync.Nil() {
			ap.Hold(A.CacheMiss)
			reg.Signal(pkt.rsync)
		}
		if pkt.n <= A.PIOCutoff {
			ap.Hold(A.AdapterOvh + A.CacheMiss + f.pio(pkt.n))
			f.ship(node, &packet{kind: pktGetData, from: pkt.to, to: pkt.from, n: pkt.n,
				issued: pkt.issued, data: f.readBytes(pkt.src, pkt.n), dst: pkt.dst, fsync: pkt.fsync})
		} else {
			ap.Hold(A.AdapterOvh)
			f.sendPages(ap, node, packet{kind: pktGetPage, from: pkt.to, to: pkt.from, n: pkt.n,
				issued: pkt.issued, dst: pkt.dst, fsync: pkt.fsync}, pkt.src)
		}
	case pktGetData:
		ap.Hold(A.AdapterOvh + f.pio(pkt.n) + A.CacheMiss)
		f.depositBytes(pkt.dst, pkt.data)
		f.opDone(node, OpGet, pkt.issued)
		ap.Hold(A.CacheMiss)
		reg.Signal(pkt.fsync)
	case pktGetPage:
		ap.Hold(A.Instr(0.1))
		f.depositBytes(pkt.dst, pkt.data)
		if pkt.last {
			f.opDone(node, OpGet, pkt.issued)
			ap.Hold(A.CacheMiss)
			reg.Signal(pkt.fsync)
		}
	case pktEnqData:
		ap.Hold(A.AdapterOvh + f.pio(pkt.n) + 2*A.CacheMiss)
		f.depositQueue(pkt.rq, pkt.data)
		f.opDone(node, OpEnq, pkt.issued)
	case pktDeqReq:
		ap.Hold(A.AdapterOvh)
		q, _ := reg.Queue(pkt.rq)
		req := *pkt
		q.TakeAsync(func(rec []byte) {
			node.Agent.Submit(machine.Work{Fn: func(ap2 *sim.Proc) {
				n := req.n
				if len(rec) < n {
					n = len(rec)
				}
				ap2.Hold(A.AdapterOvh + f.pio(n))
				f.ship(node, &packet{kind: pktDeqData, from: req.to, to: req.from, n: n,
					issued: req.issued, data: rec[:n], dst: req.dst, fsync: req.fsync})
			}})
		})
	case pktDeqData:
		ap.Hold(A.AdapterOvh + f.pio(pkt.n) + A.CacheMiss)
		f.depositBytes(pkt.dst, pkt.data)
		f.opDone(node, OpDeq, pkt.issued)
		ap.Hold(A.CacheMiss)
		reg.Signal(pkt.fsync)
	case pktAck:
		ap.Hold(A.AdapterOvh + A.CacheMiss)
		reg.Signal(pkt.fsync)
	}
}

func (f *Fabric) hwFinishPut(ap *sim.Proc, node *machine.Node, pkt *packet) {
	A := f.A
	if !pkt.rsync.Nil() {
		ap.Hold(A.CacheMiss)
		f.Cl.Reg.Signal(pkt.rsync)
	}
	if !pkt.fsync.Nil() {
		ap.Hold(A.AdapterOvh)
		f.ship(node, &packet{kind: pktAck, from: pkt.to, to: pkt.from, fsync: pkt.fsync})
	}
}
