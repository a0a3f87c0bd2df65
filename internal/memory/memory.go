// Package memory models the protected address spaces of the communication
// layer. Remote addresses in the RMA/RQ primitives are relative to an
// address-space segment named by a logical identifier (asid); the mapping is
// established at program initialization and the system faults a process that
// accesses a segment without permission — exactly the protection contract
// the message proxy enforces in the paper.
package memory

import (
	"fmt"

	"mproxy/internal/sim"
)

// ASID is a logical address-space segment identifier, unique cluster-wide.
type ASID int32

// Addr names a byte offset within a segment.
type Addr struct {
	Seg ASID
	Off int
}

func (a Addr) String() string { return fmt.Sprintf("asid%d+%d", a.Seg, a.Off) }

// Plus returns the address off bytes past a.
func (a Addr) Plus(off int) Addr { return Addr{a.Seg, a.Off + off} }

// Segment is a contiguous region of a process's address space exported for
// remote access. Only the owner and ranks it has granted may address it.
//
// Data is allocated with the segment and always holds its full size, zero
// until written; callers index it directly. A layer that wants lazily
// backed memory defers creating the segment instead (CRL's copies do).
// Large segments are kernel-backed (see kernelBackedMin): Registry.Release
// may drop their pages once a run is over, and they are unmapped when the
// *Segment is collected, so a Data subslice must never be kept past the
// segment it came from.
type Segment struct {
	ID    ASID
	Owner int // global rank of the owning process
	Data  []byte
	// Ranks below 64 — every configuration in the paper — are tracked in
	// a bitmask so the per-transfer protection check stays off the heap
	// and out of the map code; larger ranks spill to the map. world
	// short-circuits both for world-readable segments, which keeps a
	// 1000-node serving cluster's grants O(1) instead of O(ranks) map
	// inserts.
	aclLow uint64
	acl    map[int]bool
	world  bool
}

// Grant permits rank to address this segment.
func (s *Segment) Grant(rank int) {
	if rank >= 0 && rank < 64 {
		s.aclLow |= 1 << rank
		return
	}
	if s.acl == nil {
		s.acl = make(map[int]bool)
	}
	s.acl[rank] = true
}

// GrantAll permits every rank in [0, n) to address this segment.
func (s *Segment) GrantAll(n int) {
	for r := 0; r < n; r++ {
		s.Grant(r)
	}
}

// GrantWorld permits every rank, present and future, in O(1).
func (s *Segment) GrantWorld() { s.world = true }

// Revoke removes rank's permission. The owner's access cannot be revoked.
func (s *Segment) Revoke(rank int) {
	if rank >= 0 && rank < 64 {
		s.aclLow &^= 1 << rank
		return
	}
	delete(s.acl, rank)
}

// Allowed reports whether rank may address this segment.
func (s *Segment) Allowed(rank int) bool {
	if s.world || rank == s.Owner {
		return true
	}
	if rank >= 0 && rank < 64 {
		return s.aclLow&(1<<rank) != 0
	}
	return s.acl[rank]
}

// Addr returns the address of byte off within the segment.
func (s *Segment) Addr(off int) Addr { return Addr{s.ID, off} }

// Fault is the error produced by a protection violation: an access to a
// segment the accessing process was not granted, or an out-of-bounds
// transfer. The communication agents check protection before moving data,
// mirroring the proxy's "address and packet size check".
type Fault struct {
	Rank int    // offending process
	Seg  ASID   // target segment
	Op   string // operation attempted
	Why  string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("fault: rank %d %s asid %d: %s", f.Rank, f.Op, f.Seg, f.Why)
}

// FlagID names a synchronization flag within a process.
type FlagID int32

// FlagRef is a cluster-wide reference to a synchronization flag (the lsync
// and rsync arguments of the RMA/RQ primitives).
type FlagRef struct {
	Owner int
	ID    FlagID
}

// Nil reports whether the reference is the zero "no flag" value.
func (f FlagRef) Nil() bool { return f.Owner == 0 && f.ID == 0 }

// QueueID names a remote queue within a process.
type QueueID int32

// QueueRef is a cluster-wide reference to a remote queue.
type QueueRef struct {
	Owner int
	ID    QueueID
}

// RQueue is a remote queue: a receive queue in the owner's address space
// that remote processes ENQ records into and the owner (usually) DEQs from.
type RQueue struct {
	ID     QueueID
	Owner  int
	aclLow uint64 // ranks 0..63, same split as Segment
	acl    map[int]bool
	world  bool

	entries  sim.Ring[[]byte]
	getters  sim.Ring[*sim.Proc]
	takers   sim.Ring[func([]byte)]
	eng      *sim.Engine
	enqueued int64
	maxDepth int
}

// Grant permits rank to enqueue into (or dequeue from) this queue.
func (q *RQueue) Grant(rank int) {
	if rank >= 0 && rank < 64 {
		q.aclLow |= 1 << rank
		return
	}
	if q.acl == nil {
		q.acl = make(map[int]bool)
	}
	q.acl[rank] = true
}

// GrantAll permits every rank in [0, n).
func (q *RQueue) GrantAll(n int) {
	for r := 0; r < n; r++ {
		q.Grant(r)
	}
}

// GrantWorld permits every rank, present and future, in O(1).
func (q *RQueue) GrantWorld() { q.world = true }

// Allowed reports whether rank may operate on this queue.
func (q *RQueue) Allowed(rank int) bool {
	if q.world || rank == q.Owner {
		return true
	}
	if rank >= 0 && rank < 64 {
		return q.aclLow&(1<<rank) != 0
	}
	return q.acl[rank]
}

// Deliver appends one record (called by the communication agent when an ENQ
// message arrives) and wakes a blocked dequeuer. Pending asynchronous
// takers (remote DEQs that found the queue empty) are served first.
func (q *RQueue) Deliver(rec []byte) {
	q.enqueued++
	if q.takers.Len() > 0 {
		q.takers.Pop()(rec)
		return
	}
	q.entries.Push(rec)
	if n := q.entries.Len(); n > q.maxDepth {
		q.maxDepth = n
	}
	if q.getters.Len() > 0 {
		q.eng.Wake(q.getters.Pop())
	}
}

// TakeAsync consumes the head record if one is present, calling fn
// immediately; otherwise fn is queued and called by a future Deliver. The
// communication agents use this to serve remote DEQ requests that race
// ahead of the matching ENQ. Queueing a prebuilt fn allocates nothing in
// steady state.
func (q *RQueue) TakeAsync(fn func([]byte)) {
	if rec, ok := q.TryTake(); ok {
		fn(rec)
		return
	}
	q.takers.Push(fn)
}

// Take removes the head record, blocking p while the queue is empty.
func (q *RQueue) Take(p *sim.Proc) []byte {
	for q.entries.Len() == 0 {
		q.getters.Push(p)
		p.Park()
	}
	return q.entries.Pop()
}

// TryTake removes the head record without blocking.
func (q *RQueue) TryTake() ([]byte, bool) {
	if q.entries.Len() == 0 {
		return nil, false
	}
	return q.entries.Pop(), true
}

// Len returns the number of queued records.
func (q *RQueue) Len() int { return q.entries.Len() }

// Enqueued returns the total number of records ever delivered.
func (q *RQueue) Enqueued() int64 { return q.enqueued }

// MaxDepth returns the high-water queue depth.
func (q *RQueue) MaxDepth() int { return q.maxDepth }

// Registry is the cluster-wide map from logical identifiers to segments,
// flags and queues ("the mapping between asid and an address space is
// defined at program initialization time"). Identifiers are allocated
// densely from 1, so the tables are slices indexed by ID — the resolves
// sit on the per-transfer hot path of every agent and every endpoint, and
// a slice index is several times cheaper than a map probe. Slot 0 stays
// empty as the "no such object" sentinel.
type Registry struct {
	eng       *sim.Engine
	nextSeg   ASID
	nextFlag  FlagID
	nextQueue QueueID
	segs      []*Segment
	flags     []flagSlot
	queues    []queueSlot
}

// flagSlot pairs a flag with the owner recorded in its reference: a ref
// forged with the right ID but the wrong owner must not resolve.
type flagSlot struct {
	owner int
	f     *sim.Flag
}

type queueSlot struct {
	owner int
	q     *RQueue
}

// NewRegistry returns an empty registry bound to eng.
func NewRegistry(eng *sim.Engine) *Registry {
	return &Registry{
		eng:    eng,
		segs:   make([]*Segment, 1),
		flags:  make([]flagSlot, 1),
		queues: make([]queueSlot, 1),
	}
}

// kernelBackedMin is the smallest segment, in bytes, whose Data comes from
// anonymous kernel pages rather than the Go heap (on unix builds). Pages
// are zeroed on first touch, so untouched capacity costs nothing; smaller
// segments stay on the heap, where a mapping's page rounding and system
// calls would cost more than they save.
const kernelBackedMin = 64 << 10

// NewSegment allocates a zeroed segment of size bytes owned by rank owner.
func (r *Registry) NewSegment(owner, size int) *Segment {
	r.nextSeg++
	s := newSegment(r.nextSeg, owner, size)
	r.segs = append(r.segs, s)
	return s
}

// Segment resolves an ASID.
func (r *Registry) Segment(id ASID) (*Segment, bool) {
	if id <= 0 || int(id) >= len(r.segs) {
		return nil, false
	}
	return r.segs[id], true
}

// CheckAccess verifies that rank may transfer n bytes at addr, returning a
// Fault otherwise.
func (r *Registry) CheckAccess(rank int, addr Addr, n int, op string) (*Segment, error) {
	s, ok := r.Segment(addr.Seg)
	if !ok {
		return nil, &Fault{Rank: rank, Seg: addr.Seg, Op: op, Why: "no such segment"}
	}
	if !s.Allowed(rank) {
		return nil, &Fault{Rank: rank, Seg: addr.Seg, Op: op, Why: "permission denied"}
	}
	if addr.Off < 0 || n < 0 || addr.Off+n > len(s.Data) {
		return nil, &Fault{Rank: rank, Seg: addr.Seg, Op: op,
			Why: fmt.Sprintf("out of bounds: [%d,%d) of %d", addr.Off, addr.Off+n, len(s.Data))}
	}
	return s, nil
}

// NewFlag allocates a synchronization flag owned by rank owner.
func (r *Registry) NewFlag(owner int) FlagRef {
	r.nextFlag++
	ref := FlagRef{Owner: owner, ID: r.nextFlag}
	r.flags = append(r.flags, flagSlot{owner: owner, f: r.eng.NewFlag()})
	return ref
}

// Flag resolves a flag reference.
func (r *Registry) Flag(ref FlagRef) (*sim.Flag, bool) {
	if ref.ID <= 0 || int(ref.ID) >= len(r.flags) {
		return nil, false
	}
	sl := r.flags[ref.ID]
	if sl.owner != ref.Owner {
		return nil, false
	}
	return sl.f, true
}

// Signal increments a flag (no-op for the nil reference), as the agents do
// on operation completion.
func (r *Registry) Signal(ref FlagRef) {
	if f, ok := r.Flag(ref); ok {
		f.Add(1)
	}
}

// NewQueue allocates a remote queue owned by rank owner.
func (r *Registry) NewQueue(owner int) *RQueue {
	r.nextQueue++
	q := &RQueue{ID: r.nextQueue, Owner: owner, eng: r.eng}
	r.queues = append(r.queues, queueSlot{owner: owner, q: q})
	return q
}

// NewQueues allocates n remote queues, queue i owned by rank i, as n
// NewQueue calls in rank order would, from one slab.
func (r *Registry) NewQueues(n int) []*RQueue {
	qs := make([]RQueue, n)
	out := make([]*RQueue, n)
	r.queues = append(r.queues, make([]queueSlot, n)...)
	base := len(r.queues) - n
	for i := range qs {
		r.nextQueue++
		q := &qs[i]
		q.ID, q.Owner, q.eng = r.nextQueue, i, r.eng
		r.queues[base+i] = queueSlot{owner: i, q: q}
		out[i] = q
	}
	return out
}

// Queue resolves a queue reference.
func (r *Registry) Queue(ref QueueRef) (*RQueue, bool) {
	if ref.ID <= 0 || int(ref.ID) >= len(r.queues) {
		return nil, false
	}
	sl := r.queues[ref.ID]
	if sl.owner != ref.Owner {
		return nil, false
	}
	return sl.q, true
}

// CheckQueue verifies that rank may operate on the referenced queue.
func (r *Registry) CheckQueue(rank int, ref QueueRef, op string) (*RQueue, error) {
	q, ok := r.Queue(ref)
	if !ok {
		return nil, &Fault{Rank: rank, Seg: ASID(ref.ID), Op: op, Why: "no such queue"}
	}
	if !q.Allowed(rank) {
		return nil, &Fault{Rank: rank, Seg: ASID(ref.ID), Op: op, Why: "queue permission denied"}
	}
	return q, nil
}
