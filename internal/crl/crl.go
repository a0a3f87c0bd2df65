// Package crl implements CRL-style all-software distributed shared memory
// (Johnson, Kaashoek, Wallach, SOSP'95), the programming system three of
// the paper's applications (LU, Barnes-Hut, Water) are written in. Shared
// data lives in regions; programs bracket accesses with StartRead/EndRead
// and StartWrite/EndWrite, and the library keeps region copies coherent
// with a fixed-home, invalidation-based protocol built entirely on the
// active-message layer — so every coherence action exercises the RMA/RQ
// primitives of whichever communication architecture is being simulated.
package crl

import (
	"fmt"
	"slices"

	"mproxy/internal/am"
	"mproxy/internal/costmodel"
	"mproxy/internal/memory"
)

// RID names a region cluster-wide.
type RID int32

// State is a mapping's coherence state.
type State int

const (
	Invalid State = iota
	Shared
	Exclusive
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "Invalid"
	case Shared:
		return "Shared"
	default:
		return "Exclusive"
	}
}

type txnKind int

const (
	txnRead txnKind = iota
	txnWrite
)

type txn struct {
	kind txnKind
	req  int
}

// regionMeta is the home-side directory entry. It is only ever touched by
// handlers running on the home rank's process.
type regionMeta struct {
	rid  RID
	home int
	size int

	homeBuf *memory.Segment

	owner   int // rank with the exclusive copy; -1 when the home copy is valid
	copyset rankSet

	busy          bool
	cur           txn
	phase         txnPhase
	waitq         []txn
	invAcksNeeded int
	reqHadShared  bool // requester held a shared copy when the write began
}

// Layer is the cluster-wide CRL runtime.
type Layer struct {
	l     *am.Layer
	nodes []*Node
	metas []*regionMeta

	hRead, hWrite, hInv, hInvAck, hFlush, hFlushData, hGrantR, hDataR, hDataW int

	// protocol message counter, for the traffic analysis
	protoMsgs int64
}

// Node is one rank's handle on the CRL runtime.
type Node struct {
	ly   *Layer
	rank int
	port *am.Port
	maps []*Region // indexed by RID; nil where the rank has not mapped

	misses int64 // region operations that required communication
	hits   int64 // region operations satisfied locally
}

// Region is a rank's mapping of a region.
type Region struct {
	node *Node
	meta *regionMeta
	// buf is the local copy. The home's mapping aliases the home buffer;
	// a non-home copy stays nil until first use (see copySeg).
	buf *memory.Segment

	st           State
	readers      int
	writers      int
	granted      bool
	pendingInv   bool
	pendingFlush bool
}

// New builds the CRL runtime over the AM layer.
func New(l *am.Layer) *Layer {
	ly := &Layer{l: l}
	for r := 0; r < l.Ranks(); r++ {
		ly.nodes = append(ly.nodes, &Node{ly: ly, rank: r, port: l.Port(r)})
	}
	ly.hRead = l.Register(func(p *am.Port, src int, args []int64, _ []byte) {
		ly.homeRequest(p, txn{txnRead, int(args[1])}, RID(args[0]))
	})
	ly.hWrite = l.Register(func(p *am.Port, src int, args []int64, _ []byte) {
		ly.homeRequest(p, txn{txnWrite, int(args[1])}, RID(args[0]))
	})
	ly.hInv = l.Register(func(p *am.Port, src int, args []int64, _ []byte) {
		ly.nodes[p.Rank()].invalidate(RID(args[0]))
	})
	ly.hInvAck = l.Register(func(p *am.Port, src int, args []int64, _ []byte) {
		m := ly.metas[args[0]]
		if !m.busy || m.phase != phaseInvWait {
			return // stale ack from an abandoned invalidation round
		}
		m.invAcksNeeded--
		if m.invAcksNeeded == 0 {
			ly.finishWrite(p, m)
		}
	})
	ly.hFlush = l.Register(func(p *am.Port, src int, args []int64, _ []byte) {
		ly.nodes[p.Rank()].flushRequest(RID(args[0]))
	})
	ly.hFlushData = l.Register(func(p *am.Port, src int, args []int64, _ []byte) {
		if crlDebug && args[0] == 1 {
			fmt.Printf("t=%v FLUSHDATA at home region %d homeval=%d busy=%v\n", p.Endpoint().Proc().Now(), args[0], int64FromBuf(ly.metas[args[0]].homeBuf.Data), ly.metas[args[0]].busy)
		}
		// The owner's data has landed in the home buffer. Resume the
		// stalled transaction only if one is actually waiting for a
		// recall; a voluntary rgn_flush can deliver data at any time.
		m := ly.metas[args[0]]
		m.owner = -1
		if m.busy && m.phase == phaseFlushWait {
			ly.continueTxn(p, m)
		}
	})
	ly.hGrantR = l.Register(func(p *am.Port, src int, args []int64, _ []byte) {
		// Read grant without data (the requester was the exclusive owner).
		rg := ly.nodes[p.Rank()].maps[RID(args[0])]
		rg.st = Shared
		rg.granted = true
	})
	ly.hDataR = l.Register(func(p *am.Port, src int, args []int64, _ []byte) {
		rg := ly.nodes[p.Rank()].maps[RID(args[0])]
		rg.st = Shared
		rg.granted = true
	})
	ly.hDataW = l.Register(func(p *am.Port, src int, args []int64, _ []byte) {
		rg := ly.nodes[p.Rank()].maps[RID(args[0])]
		rg.st = Exclusive
		rg.granted = true
	})
	return ly
}

// Node returns rank's CRL handle.
func (ly *Layer) Node(rank int) *Node { return ly.nodes[rank] }

// ProtocolMessages returns the number of coherence protocol messages sent.
func (ly *Layer) ProtocolMessages() int64 { return ly.protoMsgs }

// Create allocates a region homed at rank home. Call during program setup,
// before the simulation starts; ranks then Map the returned RID.
func (ly *Layer) Create(home, size int) RID {
	buf := ly.registry().NewSegment(home, size)
	buf.GrantAll(ly.l.Ranks())
	m := &regionMeta{
		rid: RID(len(ly.metas)), home: home, size: size,
		homeBuf: buf, owner: -1,
	}
	ly.metas = append(ly.metas, m)
	return m.rid
}

// SetDebug toggles protocol tracing.
func SetDebug(v bool) { crlDebug = v }

func (ly *Layer) registry() *memory.Registry { return ly.l.Fabric().Registry() }

// Size returns a region's size in bytes.
func (ly *Layer) Size(rid RID) int { return ly.metas[rid].size }

// Home returns a region's home rank.
func (ly *Layer) Home(rid RID) int { return ly.metas[rid].home }

// Map attaches the calling rank to a region. The home rank's mapping
// aliases the home buffer. Any other rank's copy is created on first use —
// the first data grant or flush that addresses it, or the first F64, I64
// or Bytes view — so a rank that maps regions it never touches holds no
// copy of them. Mapping is charged the same either way.
func (n *Node) Map(rid RID) *Region {
	if rg := n.mapping(rid); rg != nil {
		return rg
	}
	m := n.ly.metas[rid]
	rg := &Region{node: n, meta: m}
	if n.rank == m.home {
		rg.buf = m.homeBuf
	}
	if len(n.maps) <= int(rid) {
		n.maps = append(n.maps, make([]*Region, len(n.ly.metas)-len(n.maps))...)
	}
	n.maps[rid] = rg
	n.port.Endpoint().Compute(costmodel.IntOps(30))
	return rg
}

// mapping returns the rank's mapping of rid, or nil if it has none.
func (n *Node) mapping(rid RID) *Region {
	if int(rid) < len(n.maps) {
		return n.maps[rid]
	}
	return nil
}

// copySeg returns the mapping's local copy, creating a non-home copy the
// first time it is needed. The new segment's ASID is therefore assigned in
// event order; nothing reads ASIDs but the registry's lookups.
func (rg *Region) copySeg() *memory.Segment {
	if rg.buf == nil {
		n, m := rg.node, rg.meta
		rg.buf = n.ly.registry().NewSegment(n.rank, m.size)
		rg.buf.Grant(m.home)
	}
	return rg.buf
}

// Rank returns the mapping's rank.
func (n *Node) Rank() int { return n.rank }

// Port returns the node's active-message port.
func (n *Node) Port() *am.Port { return n.port }

// Hits and Misses report how many region operations were satisfied locally
// versus requiring protocol communication.
func (n *Node) Hits() int64   { return n.hits }
func (n *Node) Misses() int64 { return n.misses }

// DebugMeta formats a region's directory state for diagnostics.
func (ly *Layer) DebugMeta(rid RID) string {
	m := ly.metas[rid]
	states := ""
	for r, nd := range ly.nodes {
		if rg := nd.mapping(rid); rg != nil {
			states += fmt.Sprintf(" r%d:%v(rd%d,wr%d,pI%v,pF%v,gr%v)", r, rg.st, rg.readers, rg.writers, rg.pendingInv, rg.pendingFlush, rg.granted)
		}
	}
	return fmt.Sprintf("owner=%d copyset=%v busy=%v phase=%d waitq=%d acks=%d |%s",
		m.owner, slices.Collect(m.copyset.all()), m.busy, m.phase, len(m.waitq), m.invAcksNeeded, states)
}
