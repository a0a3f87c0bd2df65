package crl

import (
	"fmt"

	"mproxy/internal/am"
	"mproxy/internal/costmodel"
)

// crlDebug enables protocol tracing in debug builds.
var crlDebug = false

func int64FromBuf(b []byte) int64 {
	var v int64
	for i := 7; i >= 0; i-- {
		v = v<<8 | int64(b[i])
	}
	return v
}

// txnPhase tracks what the home's in-flight transaction is waiting for, so
// that unsolicited protocol traffic (voluntary flushes, stale acks) cannot
// resume it twice.
type txnPhase int

const (
	phaseNone      txnPhase = iota
	phaseFlushWait          // waiting for the exclusive owner's data
	phaseInvWait            // waiting for sharers' invalidation acks
)

// The fixed-home coherence protocol. All directory mutations run inside
// active-message handlers on the home rank's process, so each region's
// directory is single-threaded by construction; conflicting transactions
// queue at the home and are served in arrival order, giving sequential
// consistency per region.

// homeRequest is the entry point for MsgRead/MsgWrite at the home.
func (ly *Layer) homeRequest(p *am.Port, t txn, rid RID) {
	m := ly.metas[rid]
	if p.Rank() != m.home {
		panic(fmt.Sprintf("crl: request for region %d routed to rank %d (home %d)", rid, p.Rank(), m.home))
	}
	p.Endpoint().Compute(costmodel.IntOps(20))
	if m.busy {
		m.waitq = append(m.waitq, t)
		return
	}
	ly.startTxn(p, m, t)
}

func (ly *Layer) startTxn(p *am.Port, m *regionMeta, t txn) {
	m.busy = true
	m.cur = t
	m.phase = phaseNone
	if m.owner != -1 && m.owner != t.req {
		// Someone else holds the exclusive copy: recall it first. The
		// transaction continues in hFlushData when the data lands.
		m.phase = phaseFlushWait
		ly.protoMsgs++
		p.Request(m.owner, ly.hFlush, int64(m.rid))
		return
	}
	ly.continueTxn(p, m)
}

// continueTxn runs once the home copy is valid (or the requester is the
// owner).
func (ly *Layer) continueTxn(p *am.Port, m *regionMeta) {
	m.phase = phaseNone
	switch m.cur.kind {
	case txnRead:
		ly.grantRead(p, m)
	case txnWrite:
		ly.proceedWrite(p, m)
	}
}

func (ly *Layer) grantRead(p *am.Port, m *regionMeta) {
	req := m.cur.req
	if m.owner == req {
		// The requester already holds the only up-to-date copy: downgrade
		// in place, no data motion. The home copy remains stale, so the
		// ownership record stays until the copy is recalled.
		ly.protoMsgs++
		p.Request(req, ly.hGrantR, int64(m.rid))
	} else {
		m.copyset.add(req)
		ly.sendRegionData(p, m, req, ly.hDataR)
	}
	ly.endTxn(p, m)
}

func (ly *Layer) proceedWrite(p *am.Port, m *regionMeta) {
	req := m.cur.req
	// Invalidate all shared copies except the requester's, in rank order:
	// the send order shapes the event schedule.
	m.reqHadShared = m.copyset.has(req)
	sharers := m.copyset.len()
	if m.reqHadShared {
		sharers--
	}
	if sharers > 0 {
		m.phase = phaseInvWait
		m.invAcksNeeded = sharers
		for s := range m.copyset.all() {
			if s != req {
				ly.protoMsgs++
				p.Request(s, ly.hInv, int64(m.rid))
			}
		}
		m.copyset.reset()
		return // continues in hInvAck
	}
	m.copyset.reset()
	ly.finishWrite(p, m)
}

func (ly *Layer) finishWrite(p *am.Port, m *regionMeta) {
	req := m.cur.req
	hadCopy := m.owner == req || m.reqHadShared
	m.owner = req
	if hadCopy {
		// Upgrade in place (the requester's exclusive copy is current).
		ly.protoMsgs++
		p.Request(req, ly.hDataW, int64(m.rid))
	} else {
		ly.sendRegionData(p, m, req, ly.hDataW)
	}
	ly.endTxn(p, m)
}

// sendRegionData ships the home copy to a requester: a PUT of the region
// bytes followed by the grant handler (an am_store).
func (ly *Layer) sendRegionData(p *am.Port, m *regionMeta, req, handler int) {
	ly.protoMsgs++
	if crlDebug && m.rid == 1 {
		fmt.Printf("t=%v GRANT data region %d to rank %d homeval=%d\n", p.Endpoint().Proc().Now(), m.rid, req, int64FromBuf(m.homeBuf.Data))
	}
	if req == m.home {
		// The home's mapping aliases the home buffer: grant without data.
		p.Request(req, handler, int64(m.rid))
		return
	}
	dst := ly.nodes[req].mapping(m.rid)
	if dst == nil {
		panic(fmt.Sprintf("crl: rank %d requested unmapped region %d", req, m.rid))
	}
	p.Store(req, m.homeBuf.Addr(0), dst.copySeg().Addr(0), m.size, handler, int64(m.rid))
}

func (ly *Layer) endTxn(p *am.Port, m *regionMeta) {
	m.busy = false
	m.phase = phaseNone
	if len(m.waitq) > 0 {
		next := m.waitq[0]
		m.waitq = m.waitq[1:]
		ly.startTxn(p, m, next)
	}
}

// invalidate handles MsgInvalidate at a sharer.
func (n *Node) invalidate(rid RID) {
	rg := n.maps[rid]
	n.port.Endpoint().Compute(costmodel.IntOps(10))
	if rg.readers > 0 || rg.writers > 0 {
		rg.pendingInv = true
		return
	}
	rg.st = Invalid
	n.ly.protoMsgs++
	n.port.Request(rg.meta.home, n.ly.hInvAck, int64(rid))
}

// flushRequest handles MsgFlush at the exclusive owner.
func (n *Node) flushRequest(rid RID) {
	rg := n.maps[rid]
	n.port.Endpoint().Compute(costmodel.IntOps(10))
	if rg.readers > 0 || rg.writers > 0 {
		rg.pendingFlush = true
		return
	}
	if rg.st == Invalid {
		// A voluntary flush already carried the data home; the in-flight
		// hFlushData will resume the home's transaction.
		return
	}
	rg.flushHome()
}

// flushHome writes the owner's copy back to the home buffer and notifies
// the home, which resumes the stalled transaction.
func (rg *Region) flushHome() {
	n := rg.node
	rg.st = Invalid
	m := rg.meta
	if crlDebug && m.rid == 1 {
		fmt.Printf("t=%v FLUSH rank %d region %d value=%d\n", n.port.Endpoint().Proc().Now(), n.rank, m.rid, int64FromBuf(rg.copySeg().Data))
	}
	n.ly.protoMsgs++
	if n.rank == m.home {
		// Home mapping aliases the home buffer: nothing to copy.
		n.port.Request(m.home, n.ly.hFlushData, int64(m.rid))
		return
	}
	n.port.Store(m.home, rg.copySeg().Addr(0), m.homeBuf.Addr(0), m.size, n.ly.hFlushData, int64(m.rid))
}
