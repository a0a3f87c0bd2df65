// Package proxy implements the message proxy's user-visible data
// structures: the per-user command queues and the round-robin polling
// scanner of the main dispatch loop (Figure 5 of the paper).
//
// Each user process owns a single-producer, single-consumer command queue
// mapped in its own address space, so users are protected from each other
// and no locks are needed even with truly concurrent producers on an SMP:
// queue synchronization is a full/empty flag in each entry. The proxy scans
// registered queues and the network input in round-robin order; a shared
// non-empty bit vector lets it detect the state of many queues in a single
// probe (the polling-delay optimization discussed in Section 4.1).
//
// Both structures are generic in the command type, so a ring entry holds
// the owner's command as is instead of boxing it into an `any`. The
// communication fabric's command is a pointer to a pooled command control
// block, which keeps an entry at 16 bytes however large a request is.
package proxy

import (
	"errors"
	"fmt"
	"math/bits"
	"unsafe"
)

// ErrFull is returned when a command queue has no free entry; the caller
// must retry after the proxy drains the queue (backpressure).
var ErrFull = errors.New("proxy: command queue full")

// entry is one slot of a command queue. Valid is the full/empty flag that
// replaces locks: the producer sets it last, the consumer clears it last.
type entry[T any] struct {
	valid bool
	cmd   T
}

// initialRing is the number of entries a command queue's ring starts
// with. Queues are mostly idle, so the ring grows on demand instead of
// paying for every slot up front.
const initialRing = 1

// CommandQueue is a bounded SPSC ring of T. Only the owning rank may
// produce into it; only the proxy consumes.
//
// The queue's logical capacity — the bound the model's backpressure sees —
// is fixed at construction. Its physical ring starts at initialRing
// entries and doubles, up to that capacity, when the producer finds it
// full below the bound; a queue therefore holds host memory for less
// than twice the deepest it has been, however large its capacity.
type CommandQueue[T any] struct {
	owner    int
	capacity int // logical capacity: Enqueue fails with ErrFull at n == capacity
	ring     []entry[T]
	head     int // consumer position
	tail     int // producer position
	n        int // valid entries
	enqueued int64
	fullHits int64
}

// NewCommandQueue returns a queue of the given capacity owned by rank.
func NewCommandQueue[T any](owner, capacity int) *CommandQueue[T] {
	if capacity <= 0 {
		panic("proxy: command queue capacity must be positive")
	}
	return &CommandQueue[T]{owner: owner, capacity: capacity, ring: make([]entry[T], initialRing)}
}

// NewCommandQueues returns n queues of the given capacity, queue i owned
// by rank i, as NewCommandQueue would build them one by one. The queues
// and their initial rings come from one slab each.
func NewCommandQueues[T any](n, capacity int) []CommandQueue[T] {
	if capacity <= 0 {
		panic("proxy: command queue capacity must be positive")
	}
	qs := make([]CommandQueue[T], n)
	ring := make([]entry[T], n*initialRing)
	for i := range qs {
		qs[i] = CommandQueue[T]{owner: i, capacity: capacity,
			ring: ring[i*initialRing : (i+1)*initialRing : (i+1)*initialRing]}
	}
	return qs
}

// Owner returns the producing rank.
func (q *CommandQueue[T]) Owner() int { return q.owner }

// EntrySize returns the host bytes one ring slot takes. It reads nothing
// from q, which may be nil.
func (q *CommandQueue[T]) EntrySize() uintptr { return unsafe.Sizeof(entry[T]{}) }

// Cap returns the queue's logical capacity.
func (q *CommandQueue[T]) Cap() int { return q.capacity }

// Enqueue submits a command on behalf of rank. It fails with ErrFull when
// the queue holds capacity commands, and panics if a foreign rank produces
// into the queue — foreign processes cannot reach it in a real system,
// since it is mapped only in the owner's address space.
func (q *CommandQueue[T]) Enqueue(rank int, cmd T) error {
	if rank != q.owner {
		panic(fmt.Sprintf("proxy: rank %d produced into rank %d's command queue", rank, q.owner))
	}
	if q.n == q.capacity {
		q.fullHits++
		return ErrFull
	}
	if q.n == len(q.ring) {
		q.grow()
	}
	e := &q.ring[q.tail]
	e.cmd = cmd
	e.valid = true
	q.tail = (q.tail + 1) % len(q.ring)
	q.n++
	q.enqueued++
	return nil
}

// grow doubles the physical ring, up to the logical capacity, copying the
// valid entries head..tail to the front in FIFO order.
func (q *CommandQueue[T]) grow() {
	ring := make([]entry[T], min(2*len(q.ring), q.capacity))
	for i := 0; i < q.n; i++ {
		ring[i] = q.ring[(q.head+i)%len(q.ring)]
	}
	q.ring, q.head, q.tail = ring, 0, q.n
}

// Dequeue removes the head command, if any (consumer side).
func (q *CommandQueue[T]) Dequeue() (T, bool) {
	e := &q.ring[q.head]
	if !e.valid {
		var zero T
		return zero, false
	}
	cmd := e.cmd
	var zero T
	e.cmd = zero
	e.valid = false
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	return cmd, true
}

// Empty reports whether the queue has no valid entries.
func (q *CommandQueue[T]) Empty() bool { return !q.ring[q.head].valid }

// Len returns the number of valid entries.
func (q *CommandQueue[T]) Len() int { return q.n }

// Enqueued returns the total commands ever accepted.
func (q *CommandQueue[T]) Enqueued() int64 { return q.enqueued }

// FullHits returns how many submissions bounced off a full ring.
func (q *CommandQueue[T]) FullHits() int64 { return q.fullHits }

// Scanner is the proxy's round-robin poll over registered command queues.
// Producers set a bit in a shared bit vector when they enqueue; the scanner
// probes whole words of the vector instead of touching every queue head,
// so an idle queue costs 1/64th of a probe rather than a cache miss.
type Scanner[T any] struct {
	queues    []*CommandQueue[T]
	bitvec    []uint64
	pos       int
	suspended map[int]bool

	probes     int64 // word probes of the bit vector
	headChecks int64 // queue-head reads (cache-miss-prone)

	// observer, when non-nil, is notified after every scan pass with the
	// pass's probe and head-check counts and whether it found a command.
	// The communication fabric uses it to feed the trace stream.
	observer Observer
}

// Observer receives one notification per completed scan pass (one Next
// call): the number of bit-vector word probes and queue-head reads the
// pass performed, and whether it dequeued a command.
type Observer interface {
	ScanPass(probes, headChecks int64, found bool)
}

// SetObserver installs (or, with nil, removes) the scan observer.
func (s *Scanner[T]) SetObserver(o Observer) { s.observer = o }

// NewScanner returns an empty scanner.
func NewScanner[T any]() *Scanner[T] { return &Scanner[T]{} }

// NewScanners returns len(queues) empty scanners, scanner i with room
// for queues[i] registrations: the scanners, their queue lists and their
// bit vectors come from one slab each, so registering that many queues
// allocates nothing.
func NewScanners[T any](queues []int) []Scanner[T] {
	total, words := 0, 0
	for _, n := range queues {
		total += n
		words += (n + 63) / 64
	}
	ss := make([]Scanner[T], len(queues))
	qs := make([]*CommandQueue[T], total)
	bv := make([]uint64, words)
	for i, n := range queues {
		w := (n + 63) / 64
		ss[i].queues, qs = qs[:0:n], qs[n:]
		ss[i].bitvec, bv = bv[:0:w], bv[w:]
	}
	return ss
}

// Register adds a queue to the scan set and returns its index.
func (s *Scanner[T]) Register(q *CommandQueue[T]) int {
	idx := len(s.queues)
	s.queues = append(s.queues, q)
	if idx/64 >= len(s.bitvec) {
		s.bitvec = append(s.bitvec, 0)
	}
	return idx
}

// Owner returns the owning rank of registered queue idx.
func (s *Scanner[T]) Owner(idx int) int { return s.queues[idx].owner }

// Queues returns the number of registered queues.
func (s *Scanner[T]) Queues() int { return len(s.queues) }

// MarkNonEmpty is called by a producer after enqueueing into queue idx.
// Marks on suspended queues are deferred until Resume.
func (s *Scanner[T]) MarkNonEmpty(idx int) {
	if s.suspended[idx] {
		return
	}
	s.bitvec[idx/64] |= 1 << (idx % 64)
}

// Next dequeues one command from the next non-empty queue in round-robin
// order starting after the previous hit. It returns the command, the queue
// index, and whether anything was found.
func (s *Scanner[T]) Next() (T, int, bool) {
	var zero T
	n := len(s.queues)
	if n == 0 {
		s.observe(0, 0, false)
		return zero, -1, false
	}
	p0, h0 := s.probes, s.headChecks
	pos := s.pos % n
	// Visit each position at most twice (one full wrap past the start),
	// skipping empty stretches a bit-vector word at a time.
	for visited := 0; visited < 2*n; {
		w := pos / 64
		s.probes++
		rest := s.bitvec[w] >> (pos % 64)
		if rest == 0 {
			// The rest of this word is empty: one probe skips it all.
			next := (w + 1) * 64
			skipped := next
			if skipped > n {
				skipped = n
			}
			visited += skipped - pos
			if next >= n {
				next = 0
			}
			pos = next
			continue
		}
		idx := pos + bits.TrailingZeros64(rest)
		if idx >= n {
			visited += n - pos
			pos = 0
			continue
		}
		visited += idx - pos + 1
		s.headChecks++
		q := s.queues[idx]
		cmd, ok := q.Dequeue()
		if q.Empty() {
			s.bitvec[idx/64] &^= 1 << (idx % 64)
		}
		pos = (idx + 1) % n
		if ok {
			s.pos = pos
			s.observe(s.probes-p0, s.headChecks-h0, true)
			return cmd, idx, true
		}
		// Stale bit (command consumed earlier): keep scanning.
	}
	s.pos = pos
	s.observe(s.probes-p0, s.headChecks-h0, false)
	return zero, -1, false
}

// Pending reports whether the shared non-empty bit vector marks any
// queue. This is the cheap cross-proxy probe the work-stealing policy
// uses to pick a victim without touching queue heads; a set bit may be
// stale (the command was already consumed), but a failed Next probes and
// clears every reachable stale bit, so Pending converges to false.
func (s *Scanner[T]) Pending() bool {
	for _, w := range s.bitvec {
		if w != 0 {
			return true
		}
	}
	return false
}

func (s *Scanner[T]) observe(probes, headChecks int64, found bool) {
	if s.observer != nil {
		s.observer.ScanPass(probes, headChecks, found)
	}
}

// Suspend removes a queue from the scan set without deregistering it:
// the paper's Section 4.1 optimization of "polling only the queues of
// scheduled processes". Pending commands stay queued; producers may keep
// enqueueing, and the commands are picked up after Resume.
func (s *Scanner[T]) Suspend(idx int) {
	if s.suspended == nil {
		s.suspended = make(map[int]bool)
	}
	s.suspended[idx] = true
	s.bitvec[idx/64] &^= 1 << (idx % 64)
}

// Resume returns a suspended queue to the scan set, re-marking it
// non-empty if commands accumulated while it was descheduled.
func (s *Scanner[T]) Resume(idx int) {
	delete(s.suspended, idx)
	if !s.queues[idx].Empty() {
		s.MarkNonEmpty(idx)
	}
}

// Suspended reports whether a queue is currently out of the scan set.
func (s *Scanner[T]) Suspended(idx int) bool { return s.suspended[idx] }

// Restart rebuilds the scanner after a proxy crash-and-restart: the scan
// position returns to queue zero and the shared non-empty bit vector is
// reconstructed by probing every registered queue head. Command queues
// themselves survive a proxy crash — they live in user memory — so
// pending commands are rediscovered rather than lost; suspended queues
// stay suspended (the scheduler state that suspended them outlives the
// proxy process). The head probes are charged to HeadChecks, which is the
// restart's honest cost: one cache-miss-prone read per registered queue.
func (s *Scanner[T]) Restart() {
	s.pos = 0
	for i := range s.bitvec {
		s.bitvec[i] = 0
	}
	for idx, q := range s.queues {
		s.headChecks++
		if !s.suspended[idx] && !q.Empty() {
			s.bitvec[idx/64] |= 1 << (idx % 64)
		}
	}
}

// Probes returns the number of bit-vector word probes performed.
func (s *Scanner[T]) Probes() int64 { return s.probes }

// HeadChecks returns the number of queue-head reads performed; the bit
// vector's value is that HeadChecks stays proportional to commands rather
// than to registered queues.
func (s *Scanner[T]) HeadChecks() int64 { return s.headChecks }
