package comm

import (
	"hash/crc32"

	"mproxy/internal/machine"
	"mproxy/internal/rel"
	"mproxy/internal/trace"
)

// Reliable-transport wiring. When enabled, every inter-node packet rides
// inside a rel frame: the sequence/ack header costs rel.Config.HeaderBytes
// of extra wire serialization per frame, payloads are CRC32-protected
// against fault-plane corruption, and lost or corrupted frames are
// recovered by retransmission instead of hanging the operation. With a
// clean wire the protocol adds header bytes and ack frames but never
// reorders: frames are delivered in per-flow sequence order, so the
// fabric's FIFO assumptions hold unchanged.

// EnableRel turns on reliable delivery for this fabric's inter-node
// traffic. Call before any traffic is sent. A flow that exhausts its
// retry budget (a link down past the timeout horizon) stops the
// simulation; the error is available from RelErr.
func (f *Fabric) EnableRel(cfg rel.Config) {
	f.relSink = &relSink{f: f}
	f.relE = rel.New(f.Cl.Eng, cfg, f.relSend, f.relDeliver)
	f.relE.OnFail(func(flow rel.FlowID, err error) {
		f.Cl.Eng.Stop()
	})
}

// Rel returns the fabric's reliable-transport engine, or nil when
// disabled.
func (f *Fabric) Rel() *rel.Engine { return f.relE }

// RelErr returns the first flow failure (a link declared dead after the
// retry budget), or nil.
func (f *Fabric) RelErr() error {
	if f.relE == nil {
		return nil
	}
	return f.relE.Err()
}

// relShip routes one fabric packet through the reliable transport.
// Payload CRCs are stamped here, at hand-off, so every retransmission
// carries the checksum of the pristine data.
func (f *Fabric) relShip(pkt *packet, overlapped bool) {
	src, dst := f.nodeOf(pkt.from).ID, f.nodeOf(pkt.to).ID
	f.relE.Send(rel.FlowID{Src: src, Dst: dst}, pkt, HeaderSize+len(pkt.data), overlapped)
}

// relSend puts one rel frame on the wire from its source node — through
// the multi-switch interconnect when the cluster has one, exactly as ship
// routes bare packets. The wire sees a snapshot of the frame:
// retransmissions restamp the live frame's ack fields, which must not
// alias copies already in flight.
func (f *Fabric) relSend(fr *rel.Frame) {
	src := f.Cl.Nodes[fr.Flow.Src]
	bytes := f.relE.Config().HeaderBytes
	if fr.HasData {
		pkt := fr.Payload.(*packet)
		bytes += HeaderSize + len(pkt.data)
		if !fr.Retrans {
			fr.CRC = crc32.ChecksumIEEE(pkt.data)
		}
	}
	cp := *fr
	// DMA-fed pages cut through on first transmission; retransmissions
	// come from the transport's buffer and re-serialize like any packet.
	overlapped := fr.Overlapped && !fr.Retrans
	if ic := f.Cl.Net; ic != nil {
		ic.Ship(src.ID, fr.Flow.Dst, bytes, f.relSink, &cp, overlapped)
		return
	}
	if overlapped {
		src.OutLink.SendOverlappedToSink(bytes, f.relSink, &cp)
		return
	}
	src.OutLink.SendToSink(bytes, f.relSink, &cp)
}

// relSink receives rel frames off the wire: a corrupted frame fails the
// receiver's integrity check, anything else goes to the transport.
type relSink struct{ f *Fabric }

func (s *relSink) DeliverPacket(arg any, fate machine.PacketFate) {
	fr := arg.(*rel.Frame)
	if fate.Corrupt {
		s.f.relCorrupt(fr, fate)
		return
	}
	s.f.relE.Receive(fr)
}

// relCorrupt models the receiver-side integrity check: the fault plane
// flipped a bit somewhere in the frame. A payload hit is caught by the
// CRC32 mismatch (verified on a tampered copy — the sender's buffer stays
// pristine for retransmission); a hit in the header is caught by the
// link-level frame check. Either way the frame is discarded and the
// sender's timer recovers it.
func (f *Fabric) relCorrupt(fr *rel.Frame, fate machine.PacketFate) {
	if fr.HasData {
		data := fr.Payload.(*packet).data
		if len(data) > 0 {
			tampered := make([]byte, len(data))
			copy(tampered, data)
			bit := int(fate.CorruptBit) % (len(tampered) * 8)
			tampered[bit/8] ^= 1 << (bit % 8)
			if crc32.ChecksumIEEE(tampered) == fr.CRC {
				// A flipped bit always changes CRC32; reaching here means
				// the checksum was never stamped.
				panic("comm: corrupted payload passed CRC")
			}
		}
	}
	f.Cl.Eng.Emit(trace.KCorrupt, fr.Flow.String(), int64(fr.Seq))
}

// relDeliver hands an in-order frame's packet to the normal receive path.
func (f *Fabric) relDeliver(fr *rel.Frame) {
	pkt := fr.Payload.(*packet)
	f.deliver(f.nodeOf(pkt.to), pkt)
}
