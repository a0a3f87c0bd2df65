package comm

import (
	"fmt"

	"mproxy/internal/arch"
	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// pktKind enumerates wire packet types. It is a byte so that a packet's
// span ID fits in the word its kind shares.
type pktKind uint8

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
	span   uint32   // the originating operation's span ID (0 for acks)
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
	// that recycles through the engine pools; both are used only by the
	// agents' paths (see newPacket).
	buf    []byte
	pooled bool
	// delivered marks a packet its receiving node has taken (see
	// deliver).
	delivered bool
}

// enginePools is one engine's recycling pools for the fabric's hot-path
// objects (sim.Pool): every endpoint and agent of every node on the
// engine shares them. An object is taken from the pool of the engine
// running the code that takes it and returned to the pool of the engine
// running the code that releases it. Only packets can cross engines —
// taken on the sending node's shard, released on the receiving node's —
// so only the packet pool is bounded.
type enginePools struct {
	pkt  sim.Freelist[packet]
	req  sim.Freelist[reqBox]
	intr sim.Freelist[swIntr]
	sub  sim.Freelist[submitFrame]
}

// maxFreePackets bounds each engine's packet pool. A sequential run
// returns every packet to the pool it came from, so the pool holds at
// most the in-flight high-water mark; a sharded run's flows between
// shards need not balance, and the bound keeps a receiving shard's pool
// from collecting every packet the other shards send it.
const maxFreePackets = 1024

// reqBox is a command control block: it carries a request through a
// user's command queue to the proxy, or into a custom-hardware adapter's
// work item, so a queue slot or a work item holds a pointer instead of a
// copy. Boxes are taken and freed on the submitting node, and recycle
// through its engine's pool.
type reqBox struct {
	r request
}

// reqBoxSlab is how many boxes an empty pool allocates at once, so a
// fresh engine's pool reaches its working depth in one allocation per
// slab rather than one per box.
const reqBoxSlab = 8

func (f *Fabric) newReqBox(node *machine.Node) *reqBox {
	pool := &f.pools[node.ID].req
	if b := pool.Get(); b != nil {
		return b
	}
	slab := make([]reqBox, reqBoxSlab)
	for i := 1; i < len(slab); i++ {
		pool.Put(&slab[i])
	}
	return &slab[0]
}

func (f *Fabric) freeReqBox(node *machine.Node, b *reqBox) {
	b.r = request{}
	f.pools[node.ID].req.Put(b)
}

// newPacket returns a packet for node's agent to transmit on its output
// link. With no reliable transport and no fault plane on the link,
// packets recycle through the node engine's pool: exactly one receive
// work item consumes each delivery (no Dup, no retransmission buffer),
// so the receive path can return the packet once processed. Otherwise —
// rel (which retains payloads for retransmission), faulty links (which
// may duplicate) — packets are plain heap allocations left to the GC.
func (f *Fabric) newPacket(node *machine.Node) *packet {
	if f.relE == nil && !node.OutLink.Faulty() {
		if pkt := f.pools[node.ID].pkt.Get(); pkt != nil {
			buf := pkt.buf
			*pkt = packet{buf: buf, pooled: true}
			return pkt
		}
		return &packet{pooled: true}
	}
	return &packet{}
}

// freePacket returns a pooled packet, consumed in node's event context,
// to node's engine pool; non-pooled packets are ignored. The packet's
// data slice is dropped (it may alias foreign memory) but its buf is kept
// for reuse.
func (f *Fabric) freePacket(node *machine.Node, pkt *packet) {
	if pkt == nil || !pkt.pooled {
		return
	}
	pkt.data = nil
	if free := &f.pools[node.ID].pkt; free.Len() < maxFreePackets {
		free.Put(pkt)
	}
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

// Packet shapes: one builder per shape, shared by the agents' protocol
// states and the system-call paths. Each takes its packet from node's
// pool (newPacket).

// putHeader is the header of r's payload: a PIO packet of kind pktPutData
// or pktEnqData, or the prototype of a PUT's pktPutPage pages.
func (f *Fabric) putHeader(kind pktKind, r *request) packet {
	return packet{kind: kind, span: r.span, from: r.from, to: f.targetRank(r), n: r.n, issued: r.issued,
		dst: r.remote, rq: r.rq, fsync: r.fsync, rsync: r.rsync}
}

// replyHeader is the header of the reply to request in: a GET's
// pktGetData packet or the prototype of its pktGetPage pages, or a DEQ's
// pktDeqData record.
func replyHeader(kind pktKind, in *packet) packet {
	return packet{kind: kind, span: in.span, from: in.to, to: in.from, n: in.n, issued: in.issued,
		dst: in.dst, fsync: in.fsync}
}

// newPacketOf is newPacket holding hdr, the packet's own payload store
// kept.
func (f *Fabric) newPacketOf(node *machine.Node, hdr *packet) *packet {
	pkt := f.newPacket(node)
	buf, pooled := pkt.buf, pkt.pooled
	*pkt = *hdr
	pkt.buf, pkt.pooled = buf, pooled
	return pkt
}

// dataPacket is r's PUT or ENQ payload by PIO, read from the source now.
func (f *Fabric) dataPacket(node *machine.Node, r *request) *packet {
	kind := pktPutData
	if r.kind == OpEnq {
		kind = pktEnqData
	}
	hdr := f.putHeader(kind, r)
	pkt := f.newPacketOf(node, &hdr)
	if r.kind == OpEnq {
		// The destination queue retains the record: it must not alias
		// the packet's reusable buf.
		pkt.data = f.readSource(r)
	} else {
		f.readSourceInto(pkt, r)
	}
	return pkt
}

// getReqPacket is r's GET request.
func (f *Fabric) getReqPacket(node *machine.Node, r *request) *packet {
	pkt := f.newPacket(node)
	pkt.kind, pkt.span, pkt.from, pkt.to, pkt.n = pktGetReq, r.span, r.from, f.targetRank(r), r.n
	pkt.issued, pkt.src, pkt.dst, pkt.fsync, pkt.rsync = r.issued, r.remote, r.local, r.fsync, r.rsync
	return pkt
}

// deqReqPacket is r's DEQ request.
func (f *Fabric) deqReqPacket(node *machine.Node, r *request) *packet {
	pkt := f.newPacket(node)
	pkt.kind, pkt.span, pkt.from, pkt.to, pkt.n = pktDeqReq, r.span, r.from, f.targetRank(r), r.n
	pkt.issued, pkt.rq, pkt.dst, pkt.fsync = r.issued, r.rq, r.local, r.fsync
	return pkt
}

// getDataPacket is the PIO reply to GET request in, its payload read now.
func (f *Fabric) getDataPacket(node *machine.Node, in *packet) *packet {
	hdr := replyHeader(pktGetData, in)
	pkt := f.newPacketOf(node, &hdr)
	f.readBytesInto(pkt, in.src, in.n)
	return pkt
}

// deqDataPacket is the reply to DEQ request in, carrying rec (the
// dequeued record, cut to the size requested).
func (f *Fabric) deqDataPacket(node *machine.Node, in *packet, rec []byte) *packet {
	hdr := replyHeader(pktDeqData, in)
	pkt := f.newPacketOf(node, &hdr)
	pkt.n, pkt.data = len(rec), rec
	return pkt
}

// ackPacket is the confirmation of PUT deposit in, which sets the
// sender's fsync.
func (f *Fabric) ackPacket(node *machine.Node, in *packet) *packet {
	pkt := f.newPacket(node)
	pkt.kind, pkt.from, pkt.to, pkt.fsync = pktAck, in.to, in.from, in.fsync
	return pkt
}

// shipPage ships the page of proto's transfer at off, chunk bytes read
// from src+off after the DMA engine has moved them.
func (f *Fabric) shipPage(node *machine.Node, proto *packet, src memory.Addr, off, chunk int) {
	pg := f.newPacketOf(node, proto)
	pg.n = chunk
	f.readBytesInto(pg, src.Plus(off), chunk)
	pg.dst = proto.dst.Plus(off)
	pg.last = off+chunk == proto.n
	f.shipOverlapped(node, pg, off == 0)
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
func (f *Fabric) ship(node *machine.Node, pkt *packet) { f.send(node, pkt, false, true) }

// shipOverlapped ships a DMA-fed page whose serialization was already paid
// at the (slower) DMA engine. Only a transfer's first page marks its
// span's launch: later pages leave while the receiver serves the first.
func (f *Fabric) shipOverlapped(node *machine.Node, pkt *packet, first bool) {
	f.send(node, pkt, true, first)
}

// send puts pkt on the wire with the fabric as its sink: over the
// reliable transport, through the multi-switch interconnect (which owns
// the path from the source link through the switches), or on the flat
// model's single source link. launch marks the packet's span launched.
func (f *Fabric) send(node *machine.Node, pkt *packet, overlapped, launch bool) {
	if f.spans != nil && launch {
		f.spans.Launched(pkt.span)
	}
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
//
// A fault plane's duplicate delivers the same packet a second time; the
// reliable transport filters such copies out before they get here, but
// without it the receiver drops them. The copy carries nothing the first
// delivery did not, and handling it again would complete its operation,
// signal its flags and answer its request a second time.
func (f *Fabric) deliver(dest *machine.Node, pkt *packet) {
	if pkt.delivered {
		return
	}
	pkt.delivered = true
	if f.spans != nil {
		f.spans.Arrived(pkt.span)
	}
	switch f.A.Kind {
	case arch.Proxy:
		f.agentForRank(pkt.to).Submit(workRecv, pkt)
	case arch.CustomHW:
		dest.Agent.Submit(workRecv, pkt)
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
// cycle in agentExec.startPages; both ship each page with shipPage.
func (f *Fabric) sendPages(p *sim.Proc, node *machine.Node, proto packet, srcAddr memory.Addr) {
	off := 0
	for off < proto.n {
		chunk := min(proto.n-off, f.A.PageSize)
		if !f.A.Prepinned {
			p.Hold(2 * f.A.PinPerPage)
		}
		node.DMA.Occupy(p, chunk)
		f.shipPage(node, &proto, srcAddr, off, chunk)
		off += chunk
	}
}

// intra handles communication between ranks on the same SMP node, which
// moves through shared memory and bypasses both the network and the
// communication agent (this is why 4-processor nodes load the proxy less
// than 16 uniprocessor nodes would — Section 5.4).
func (f *Fabric) intra(ep *Endpoint, r request) {
	A := &f.A
	copyCost := 2*A.CacheMiss + arch.XferTime(r.n, A.MemBW)
	reg := f.Cl.Reg
	node := ep.cpu.Node
	switch r.kind {
	case OpPut:
		ep.cpu.Compute(ep.proc, copyCost)
		f.depositBytes(r.remote, f.readSource(&r))
		reg.Signal(r.rsync)
		reg.Signal(r.fsync)
		f.opDone(node, OpPut, r.issued, r.span, "")
	case OpGet:
		ep.cpu.Compute(ep.proc, copyCost)
		f.depositBytes(r.local, f.readBytes(r.remote, r.n))
		reg.Signal(r.rsync)
		reg.Signal(r.fsync)
		f.opDone(node, OpGet, r.issued, r.span, "")
	case OpEnq:
		ep.cpu.Compute(ep.proc, copyCost+A.CacheMiss) // tail pointer update
		f.depositQueue(r.rq, f.readSource(&r))
		reg.Signal(r.fsync)
		f.opDone(node, OpEnq, r.issued, r.span, "")
	case OpDeq:
		q, _ := reg.Queue(r.rq)
		dst, lsync := r.local, r.fsync
		n := r.n
		issued, id := r.issued, r.span
		q.TakeAsync(func(rec []byte) {
			if len(rec) > n {
				rec = rec[:n]
			}
			f.depositBytes(dst, rec)
			reg.Signal(lsync)
			f.opDone(node, OpDeq, issued, id, "")
		})
		ep.cpu.Compute(ep.proc, copyCost+A.CacheMiss)
	}
}
