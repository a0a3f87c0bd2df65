package comm

import (
	"fmt"

	"mproxy/internal/arch"
	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// pktKind enumerates wire packet types.
type pktKind int

const (
	pktPutData pktKind = iota // PUT payload (PIO)
	pktPutPage                // PUT payload page (DMA)
	pktGetReq                 // GET request
	pktGetData                // GET reply payload (PIO)
	pktGetPage                // GET reply payload page (DMA)
	pktEnqData                // ENQ record
	pktDeqReq                 // DEQ request
	pktDeqData                // DEQ reply record
	pktAck                    // PUT deposit confirmation (sets fsync)
)

// packet is a network message between nodes.
type packet struct {
	kind   pktKind
	from   int      // issuing rank
	to     int      // rank whose node receives the packet
	issued sim.Time // when the originating operation was submitted
	n      int      // payload bytes carried (or requested, for requests)
	data   []byte
	dst    memory.Addr // deposit address (PutData/GetData/DeqData)
	src    memory.Addr // source address (GetReq)
	rq     memory.QueueRef
	fsync  memory.FlagRef
	rsync  memory.FlagRef
	last   bool // final page of a multi-page transfer

	// buf is the packet's reusable payload store and pooled marks a packet
	// owned by the fabric's freelist; both are used only by the agents'
	// paths (see newPacket).
	buf    []byte
	pooled bool
}

// reqBox carries a request into a custom-hardware agent work item: the
// adapter's command control block. Boxes recycle through Fabric.reqFree.
type reqBox struct {
	r request
}

func (f *Fabric) newReqBox() *reqBox {
	if f.parallel {
		return &reqBox{} // the freelist is fabric-global: shards must not share it
	}
	if b := f.reqFree.Get(); b != nil {
		return b
	}
	return &reqBox{}
}

func (f *Fabric) freeReqBox(b *reqBox) {
	if f.parallel {
		return
	}
	b.r = request{}
	f.reqFree.Put(b)
}

// newPacket returns an agent's packet for transmission on link l. With no
// reliable transport and no fault plane on l, packets recycle through a
// freelist: exactly one receive work item consumes each delivery (no Dup,
// no retransmission buffer), so the receive path can return the packet
// once processed. Otherwise — rel (which retains payloads for
// retransmission), faulty links (which may duplicate) — packets are plain
// heap allocations left to the GC.
func (f *Fabric) newPacket(l *machine.Link) *packet {
	// Parallel execution disables the freelist: a packet would be taken on
	// the sending shard and returned on the receiving one, racing on the
	// shared pool. Plain allocations keep each shard self-contained.
	if !f.parallel && f.relE == nil && !l.Faulty() {
		if pkt := f.pktFree.Get(); pkt != nil {
			buf := pkt.buf
			*pkt = packet{buf: buf, pooled: true}
			return pkt
		}
		return &packet{pooled: true}
	}
	return &packet{}
}

// freePacket returns a pooled packet to the freelist; non-pooled packets
// are ignored. The packet's data slice is dropped (it may alias foreign
// memory) but its buf is kept for reuse.
func (f *Fabric) freePacket(pkt *packet) {
	if pkt == nil || !pkt.pooled {
		return
	}
	pkt.data = nil
	f.pktFree.Put(pkt)
}

// targetRank resolves which rank's node services a request's remote side.
func (f *Fabric) targetRank(r *request) int {
	switch r.kind {
	case OpPut, OpGet:
		seg, ok := f.Cl.Reg.Segment(r.remote.Seg)
		if !ok {
			panic(fmt.Sprintf("comm: unresolved segment %d", r.remote.Seg))
		}
		return seg.Owner
	default:
		return r.rq.Owner
	}
}

// nodeOf returns the node hosting a rank.
func (f *Fabric) nodeOf(rank int) *machine.Node { return f.Cl.CPUs[rank].Node }

// agentForRank returns the agent serving a rank's endpoint: the proxy
// the scheduling policy bound the endpoint to, so a command stream's
// receive side lands on the same core as its send side. On single-agent
// design points (custom hardware) the endpoint's proxyIdx is zero and
// this is the node's lone agent.
func (f *Fabric) agentForRank(rank int) *machine.Agent {
	cpu := f.Cl.CPUs[rank]
	return cpu.Node.Agents[f.eps[rank].proxyIdx]
}

// ship serializes a PIO packet onto the sending node's output link,
// through the reliable transport when one is enabled. Without it, faults
// are terminal: a corrupted packet is discarded at the receiver (the
// integrity check) and nothing retransmits it.
func (f *Fabric) ship(node *machine.Node, pkt *packet) { f.send(node, pkt, false) }

// shipOverlapped ships a DMA-fed page whose serialization was already paid
// at the (slower) DMA engine.
func (f *Fabric) shipOverlapped(node *machine.Node, pkt *packet) { f.send(node, pkt, true) }

// send puts pkt on the wire with the fabric as its sink: over the
// reliable transport, through the multi-switch interconnect (which owns
// the path from the source link through the switches), or on the flat
// model's single source link.
func (f *Fabric) send(node *machine.Node, pkt *packet, overlapped bool) {
	if f.relE != nil {
		f.relShip(pkt, overlapped)
		return
	}
	bytes := HeaderSize + len(pkt.data)
	if ic := f.Cl.Net; ic != nil {
		ic.Ship(node.ID, f.nodeOf(pkt.to).ID, bytes, f, pkt, overlapped)
		return
	}
	if overlapped {
		node.OutLink.SendOverlappedToSink(bytes, f, pkt)
		return
	}
	node.OutLink.SendToSink(bytes, f, pkt)
}

// DeliverPacket implements machine.PacketSink for the ship paths. Every
// shipped packet's from rank lives on the sending node, so the corrupt
// trace names the link the packet left on.
func (f *Fabric) DeliverPacket(arg any, fate machine.PacketFate) {
	pkt := arg.(*packet)
	if fate.Corrupt {
		f.Cl.Eng.Emit(trace.KCorrupt, f.nodeOf(pkt.from).OutLink.Name(), int64(pkt.n))
		return
	}
	f.deliver(f.nodeOf(pkt.to), pkt)
}

// deliver dispatches an arriving packet to the receiving node's agent
// (proxy or adapter) or, under SW, interrupts the destination CPU.
func (f *Fabric) deliver(dest *machine.Node, pkt *packet) {
	switch f.A.Kind {
	case arch.Proxy:
		f.agentForRank(pkt.to).Submit(machine.Work{TFn: mpRecvWork, Arg: pkt})
	case arch.CustomHW:
		dest.Agent.Submit(machine.Work{TFn: hwRecvWork, Arg: pkt})
	case arch.Syscall:
		f.swRecv(dest, pkt)
	}
}

// readSource snapshots the request's payload bytes at send time (the
// zero-copy read of the user's source buffer).
func (f *Fabric) readSource(r *request) []byte {
	if r.payload != nil {
		return r.payload
	}
	return f.readBytes(r.local, r.n)
}

func (f *Fabric) readBytes(addr memory.Addr, n int) []byte {
	seg, ok := f.Cl.Reg.Segment(addr.Seg)
	if !ok {
		panic(fmt.Sprintf("comm: read through unresolved segment %d", addr.Seg))
	}
	buf := make([]byte, n)
	copy(buf, seg.Data[addr.Off:addr.Off+n])
	return buf
}

// readSourceInto is readSource for a pooled packet: the payload lands in
// the packet's reusable buf instead of a fresh slice. Only receive paths
// that never retain pkt.data past processing may use it — ENQ records, in
// particular, are handed to the destination queue and must stay freshly
// allocated.
func (f *Fabric) readSourceInto(pkt *packet, r *request) {
	if r.payload != nil {
		pkt.data = r.payload
		return
	}
	f.readBytesInto(pkt, r.local, r.n)
}

// readBytesInto reads n bytes at addr into pkt's reusable buf (falling
// back to a fresh slice for unpooled packets).
func (f *Fabric) readBytesInto(pkt *packet, addr memory.Addr, n int) {
	if !pkt.pooled {
		pkt.data = f.readBytes(addr, n)
		return
	}
	seg, ok := f.Cl.Reg.Segment(addr.Seg)
	if !ok {
		panic(fmt.Sprintf("comm: read through unresolved segment %d", addr.Seg))
	}
	if cap(pkt.buf) < n {
		pkt.buf = make([]byte, n)
	}
	pkt.buf = pkt.buf[:n]
	copy(pkt.buf, seg.Data[addr.Off:addr.Off+n])
	pkt.data = pkt.buf
}

// depositBytes writes payload data into a segment.
func (f *Fabric) depositBytes(addr memory.Addr, data []byte) {
	seg, ok := f.Cl.Reg.Segment(addr.Seg)
	if !ok {
		panic(fmt.Sprintf("comm: deposit through unresolved segment %d", addr.Seg))
	}
	copy(seg.Data[addr.Off:addr.Off+len(data)], data)
}

// depositQueue appends a record to a remote queue.
func (f *Fabric) depositQueue(ref memory.QueueRef, data []byte) {
	q, ok := f.Cl.Reg.Queue(ref)
	if !ok {
		panic(fmt.Sprintf("comm: deposit into unresolved queue %+v", ref))
	}
	q.Deliver(data)
}

// sendPages streams a large transfer page by page on behalf of p, the
// system-call design point's kernel context: the user process blocked in
// the kernel, or the transient kernel thread serving a large GET. Per
// page: dynamically pin the source and destination pages (folded into the
// sending side, 10 us each; skipped when Prepinned), stream through the DMA
// engine, and cut through to the wire. This serialized per-page cycle is
// what limits software peak bandwidth to pageSize/(2*pin + page/DMABW) —
// 86.7 MB/s at next-generation parameters versus 150 MB/s for pre-pinned
// custom hardware (Table 4). The agents stream pages through the same
// cycle in agentExec.startPages.
func (f *Fabric) sendPages(p *sim.Proc, node *machine.Node, proto packet, srcAddr memory.Addr) {
	off := 0
	for off < proto.n {
		chunk := proto.n - off
		if chunk > f.A.PageSize {
			chunk = f.A.PageSize
		}
		if !f.A.Prepinned {
			p.Hold(2 * f.A.PinPerPage)
		}
		node.DMA.Occupy(p, chunk)
		pg := proto
		pg.n = chunk
		pg.data = f.readBytes(srcAddr.Plus(off), chunk)
		pg.dst = proto.dst.Plus(off)
		pg.last = off+chunk == proto.n
		f.shipOverlapped(node, &pg)
		off += chunk
	}
}

// intra handles communication between ranks on the same SMP node, which
// moves through shared memory and bypasses both the network and the
// communication agent (this is why 4-processor nodes load the proxy less
// than 16 uniprocessor nodes would — Section 5.4).
func (f *Fabric) intra(ep *Endpoint, r request) {
	A := f.A
	copyCost := 2*A.CacheMiss + arch.XferTime(r.n, A.MemBW)
	reg := f.Cl.Reg
	node := ep.cpu.Node
	switch r.kind {
	case OpPut:
		ep.cpu.Compute(ep.proc, copyCost)
		f.depositBytes(r.remote, f.readSource(&r))
		reg.Signal(r.rsync)
		reg.Signal(r.fsync)
		f.opDone(node, OpPut, r.issued)
	case OpGet:
		ep.cpu.Compute(ep.proc, copyCost)
		f.depositBytes(r.local, f.readBytes(r.remote, r.n))
		reg.Signal(r.rsync)
		reg.Signal(r.fsync)
		f.opDone(node, OpGet, r.issued)
	case OpEnq:
		ep.cpu.Compute(ep.proc, copyCost+A.CacheMiss) // tail pointer update
		f.depositQueue(r.rq, f.readSource(&r))
		reg.Signal(r.fsync)
		f.opDone(node, OpEnq, r.issued)
	case OpDeq:
		q, _ := reg.Queue(r.rq)
		dst, lsync := r.local, r.fsync
		n := r.n
		issued := r.issued
		q.TakeAsync(func(rec []byte) {
			if len(rec) > n {
				rec = rec[:n]
			}
			f.depositBytes(dst, rec)
			reg.Signal(lsync)
			f.opDone(node, OpDeq, issued)
		})
		ep.cpu.Compute(ep.proc, copyCost+A.CacheMiss)
	}
}
