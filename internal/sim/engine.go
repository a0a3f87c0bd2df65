package sim

import (
	"fmt"
	"math/bits"

	"mproxy/internal/trace"
)

// event is a scheduled occurrence. Ties on time are broken by insertion
// sequence so runs are deterministic. fn is the only payload: process
// handoffs carry their Proc's or Task's prebuilt run closure, so the
// dominant handoff pattern needs no per-event allocation.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventHeap is a monotone radix queue over events ordered by (at, seq).
// It relies on the engine's clock never running backwards: last is the
// time of the last pop, and every queued event has at >= last. last may
// lag the engine's clock — RunUntil and a run-ahead Proc.Hold advance the
// clock without popping — which is harmless: buckets are relative to
// last, pushes land at or after the clock and so at or after last, and
// due only ever matches an instant a pop reached. Bucket 0
// holds the events at exactly last, in seq order; bucket k (1..63) holds
// those whose at first differs from last at bit k-1, so a bit mask of
// occupied buckets finds the nearest ones in one instruction. When bucket
// 0 drains, pop takes the lowest occupied bucket, moves last to its
// minimum and redistributes it: every entry lands in a strictly lower
// bucket, those equal to the new last in bucket 0. Each event therefore
// moves at most 63 times however many are pending, against a comparison
// heap's log(n) sift steps on every pop.
//
// Bucket 0 needs no sort: an entry's bucket is a function of its time
// and last alone (settle recomputes it for a whole bucket at once, and
// higher buckets keep their index), so the entries of one instant always
// share a bucket; pushes arrive in seq order and settle moves a bucket in
// order, so every bucket holds each instant's entries in seq order.
//
// peek never moves last: a sharded run (sim/par) inserts cross-shard
// deliveries anywhere at or after the receiver's clock, which may be
// below a peeked minimum. It caches the minimum above bucket 0 (lo):
// pushes lower it and only settle invalidates it, so a Proc that peeks
// on every Hold while many events wait in one far bucket scans that
// bucket once, and the settle that finally drains it reuses the scan.
//
// Storage is one chunk store for all 64 buckets: a bucket is a list of
// fixed-size chunks, every chunk but its last full. A bucket keeps its
// first chunk when it empties, so the buckets a run keeps refilling
// append in place; every other chunk that drains — bucket 0's as pops
// consume it, a settled bucket's as its entries move down — goes back to
// the queue's one free list for the next bucket that overflows. The
// queue therefore holds one chunk per bucket it has used plus what its
// peak pending events fill, however they spread over the buckets over a
// run, and reusing chunks leaves no garbage behind. Vacated slots and
// free chunks are zeroed so fired closures become GC-able. The free room
// in each bucket's last chunk is counted beside the list heads, so an
// append touches the slot it fills and that count, not the chunk's link.
type eventHeap struct {
	last  Time
	n     int
	head  int    // bucket 0's next entry to pop, in its first chunk
	mask  uint64 // bit k set when bucket k is non-empty
	first [64]*chunk
	tail  [64]*chunk
	room  [64]int // free slots in tail[k]; 0 when it is full or absent
	free  *chunk  // drained chunks, linked through next
	lo    Time    // minimum time above bucket 0, when loOK
	loOK  bool

	// Work counters (see QueueStats), kept off the push and pop fast
	// paths: pops counts the entries popped from bucket 0's chunks
	// before its current first chunk (add head for the rest), so pushes
	// are pops + n; peak is the most entries pending at a settle.
	pops, settles, moves uint64
	peak                 int
}

// chunkLen is the number of events a chunk holds: with its link, a
// chunk fills one 1 KiB allocation size class.
const chunkLen = 42

// chunk is one fixed-size piece of a bucket: next is the bucket's
// following chunk (or, on the free list, the next free one).
type chunk struct {
	next *chunk
	ev   [chunkLen]event
}

// bucket returns the bucket an event at `at` belongs to relative to
// last. Times are non-negative, so at^last stays below 2^63.
func (h *eventHeap) bucket(at Time) int {
	return bits.Len64(uint64(at ^ h.last))
}

func (h *eventHeap) len() int { return h.n }

func (h *eventHeap) push(ev event) {
	if ev.at < h.last {
		panic("sim: event time ran backwards")
	}
	k := h.bucket(ev.at)
	if h.room[k] == 0 {
		// A call that nothing follows keeps the fast path free of the
		// register spills a call it resumes after would need.
		h.pushExtend(k, ev)
		return
	}
	h.tail[k].ev[chunkLen-h.room[k]] = ev
	h.room[k]--
	h.mask |= 1 << k
	h.n++
	if k > 0 && h.loOK && ev.at < h.lo {
		h.lo = ev.at
	}
}

// pushExtend is push for an event whose bucket k has no room.
func (h *eventHeap) pushExtend(k int, ev event) {
	h.extend(k)
	h.push(ev)
}

// extend appends an empty chunk to bucket k, from the free list when it
// has one.
func (h *eventHeap) extend(k int) {
	c := h.take()
	if t := h.tail[k]; t != nil {
		t.next = c
	} else {
		h.first[k] = c
	}
	h.tail[k] = c
	h.room[k] = chunkLen
}

// take returns an empty chunk, from the free list when it has one.
func (h *eventHeap) take() *chunk {
	c := h.free
	if c == nil {
		return new(chunk)
	}
	h.free = c.next
	c.next = nil
	return c
}

// release returns a chunk whose slots are already zeroed to the free
// list.
func (h *eventHeap) release(c *chunk) {
	c.next = h.free
	h.free = c
}

// due reports whether events at exactly t are next: bucket 0 is
// non-empty and the last pop happened at t.
func (h *eventHeap) due(t Time) bool { return h.mask&1 != 0 && h.last == t }

// peek returns the minimum pending time without moving last. The queue
// must be non-empty.
func (h *eventHeap) peek() Time {
	if h.mask&1 != 0 {
		return h.last
	}
	if !h.loOK {
		h.scanLo()
	}
	return h.lo
}

// scanLo caches the minimum time above bucket 0: the lowest occupied
// bucket's. Kept out of line so that peek, which the engine calls on
// every Hold and every limited run step, stays small enough to inline.
//
//go:noinline
func (h *eventHeap) scanLo() {
	k := bits.TrailingZeros64(h.mask)
	c, tail := h.first[k], h.tail[k]
	m := c.ev[0].at
	for ; c != tail; c = c.next {
		for _, ev := range c.ev[:] {
			m = min(m, ev.at)
		}
	}
	for _, ev := range c.ev[:chunkLen-h.room[k]] {
		m = min(m, ev.at)
	}
	h.lo, h.loOK = m, true
}

// pop removes and returns the (at, seq)-minimum event. The queue must
// be non-empty.
func (h *eventHeap) pop() event {
	if h.mask&1 == 0 {
		h.settle()
	}
	c := h.first[0]
	ev := c.ev[h.head]
	c.ev[h.head] = event{} // clear the vacated slot: the closure must be collectable
	h.head++
	if c == h.tail[0] {
		if h.head == chunkLen-h.room[0] {
			// Bucket 0 is empty; its chunk stays for the next instant.
			h.pops += uint64(h.head)
			h.room[0], h.head = chunkLen, 0
			h.mask &^= 1
		}
	} else if h.head == chunkLen {
		h.pops += chunkLen
		h.first[0], h.head = c.next, 0
		h.release(c)
	}
	h.n--
	return ev
}

// settle refills the drained bucket 0 from the lowest occupied bucket.
// Bucket 1 holds a single instant, last with bit 0 set, so the two
// buckets just trade chunk lists. Any other bucket's entries are copied
// down chunk by chunk; the bucket keeps its first chunk, empty, and frees
// the rest as they drain, so the next chunk a lower bucket needs is one
// just drained.
func (h *eventHeap) settle() {
	h.settles++
	h.peak = max(h.peak, h.n)
	k := bits.TrailingZeros64(h.mask)
	if k == 1 {
		h.last |= 1
		h.loOK = false
		h.first[0], h.first[1] = h.first[1], h.first[0]
		h.tail[0], h.tail[1] = h.tail[1], h.tail[0]
		h.room[0], h.room[1] = h.room[1], h.room[0]
		h.mask ^= 0b11
		return
	}
	first, tail, n := h.first[k], h.tail[k], chunkLen-h.room[k]
	if !h.loOK {
		// A bucket of one chunk, the usual case, is scanned here: a call
		// to scanLo costs about as much as the scan.
		if first == tail {
			m := first.ev[0].at
			for _, ev := range first.ev[1:n] {
				m = min(m, ev.at)
			}
			h.lo = m
		} else {
			h.scanLo()
		}
	}
	h.last = h.lo
	h.loOK = false
	h.mask &^= 1 << k
	h.tail[k], h.room[k] = first, chunkLen
	var occupied uint64 // the buckets entries land in, kept in a register
	moved := uint64(n)
	for c := first; ; {
		evs := c.ev[:]
		if c == tail {
			evs = evs[:n]
		} else {
			moved += chunkLen
		}
		for i := 0; ; {
			// The inner loop makes no call, so nothing it keeps in
			// registers is spilled: it stops at a full bucket, and the
			// outer one extends that bucket and resumes.
			for ; i < len(evs); i++ {
				j := h.bucket(evs[i].at)
				r := h.room[j]
				if r == 0 {
					break
				}
				h.tail[j].ev[chunkLen-r] = evs[i]
				h.room[j] = r - 1
				occupied |= 1 << j
			}
			if i == len(evs) {
				break
			}
			h.extend(h.bucket(evs[i].at))
		}
		clear(evs)
		if c == tail {
			if c != first {
				h.release(c)
				first.next = nil
			}
			h.mask |= occupied
			h.moves += moved
			return
		}
		next := c.next
		if c != first {
			h.release(c)
		}
		c = next
	}
}

// eventLane is the same-timestamp FIFO fast lane. Every Schedule(0, ...)
// and Wake — the dominant case, one per process handoff — lands here and
// bypasses the heap entirely: events pushed while the clock sits at `now`
// can only fire at `now`, in push order, so a queue suffices. It is a
// list of the heap's chunks, drawn from and returned to the heap's free
// list like a bucket's: the lane keeps its first chunk when it drains,
// and every other chunk goes back as pops consume it, so a burst (the
// t = 0 spawn of a 1,024-node cluster's agents) leaves behind chunks the
// heap reuses, not an array of its own.
type eventLane struct {
	first, tail *chunk
	head        int // next entry to pop, in first
	fill        int // entries in tail; chunkLen when it is full or absent
	n           int
}

func (l *eventLane) push(h *eventHeap, ev event) {
	if l.fill == chunkLen {
		l.extend(h)
	}
	l.tail.ev[l.fill] = ev
	l.fill++
	l.n++
}

// extend appends an empty chunk to the lane.
func (l *eventLane) extend(h *eventHeap) {
	c := h.take()
	if l.tail != nil {
		l.tail.next = c
	} else {
		l.first = c
	}
	l.tail, l.fill = c, 0
}

func (l *eventLane) len() int { return l.n }

func (l *eventLane) pop(h *eventHeap) event {
	c := l.first
	ev := c.ev[l.head]
	c.ev[l.head] = event{} // clear: fired closures must be collectable
	l.head++
	l.n--
	if l.n == 0 {
		// Drained: the chunk stays for the next burst.
		l.head, l.fill = 0, 0
	} else if l.head == chunkLen {
		l.first, l.head = c.next, 0
		c.next = nil
		h.release(c)
	}
	return ev
}

// traceBatch is the per-engine tracer buffer size. Batch-capable tracers
// (trace.BatchTracer: the digest, recorder, writer) receive events in
// chunks of up to this many, turning one interface call per occurrence
// into one per batch; order is exactly the emission order either way.
const traceBatch = 256

// Engine is a discrete-event simulator. It is not safe for concurrent use
// from outside simulated processes; all interaction happens either before
// Run, or from process bodies and scheduled events during Run.
type Engine struct {
	now  Time
	seq  uint64
	lane eventLane // beside the clock, ahead of the heap's 1.6 kB: a same-instant handoff stays in the first cache lines
	heap eventHeap

	live    int   // spawned processes/tasks that have not yet terminated
	failure error // first panic captured from a process body
	stopped bool
	// running is set while run executes events; limit is that run's time
	// bound (negative: none). Proc.Hold reads both to decide whether it
	// may run ahead (see runAhead).
	running bool
	limit   Time
	// down is set by Shutdown: a reaped engine cannot be resumed, so
	// later runs fire nothing and later spawns never start (closing the
	// goroutine-leak window of a spawn event firing after its engine was
	// shut down and its actor list discarded).
	down   bool
	actors actorList // every spawned Proc and Task, in spawn order

	// tracer, when non-nil, receives one trace.Event per engine
	// occurrence. The nil check is the entire disabled-tracer cost.
	// When the tracer is batch-capable (batch non-nil), events stage in
	// tbuf and flush in order — on a full buffer, at the end of every
	// run, and from FlushTrace.
	tracer trace.Tracer
	batch  trace.BatchTracer
	tbuf   []trace.Event

	// pools lists the engine's recycling pools, one per pool type (see
	// Pool).
	pools poolNode
}

// NewEngine returns an engine at time zero with no pending events.
func NewEngine() *Engine { return &Engine{lane: eventLane{fill: chunkLen}} }

// SetTracer installs (or, with nil, removes) the engine's tracer. Install
// before Run for a complete event stream; the golden-trace harness hashes
// everything from the first Schedule on. Any events still batched for the
// previous tracer are flushed to it first.
func (e *Engine) SetTracer(t trace.Tracer) {
	e.FlushTrace()
	e.tracer = t
	e.batch, _ = t.(trace.BatchTracer)
	if e.batch != nil && e.tbuf == nil {
		e.tbuf = make([]trace.Event, 0, traceBatch)
	}
}

// Tracer returns the installed tracer, or nil.
func (e *Engine) Tracer() trace.Tracer { return e.tracer }

// FlushTrace delivers any batched trace events to the tracer. The engine
// flushes automatically when the buffer fills and at the end of every
// Run/RunUntil; call it manually only to observe tracer state mid-run
// from outside the event stream.
func (e *Engine) FlushTrace() {
	if len(e.tbuf) > 0 {
		e.batch.RecordBatch(e.tbuf)
		e.tbuf = e.tbuf[:0]
	}
}

// record stages ev for a batch-capable tracer or delivers it directly.
// Callers must have checked e.tracer != nil.
func (e *Engine) record(ev trace.Event) {
	if e.batch != nil {
		e.tbuf = append(e.tbuf, ev)
		if len(e.tbuf) == traceBatch {
			e.FlushTrace()
		}
		return
	}
	e.tracer.Record(ev)
}

// Emit records an event against the engine's tracer, if one is installed.
// Model layers (machine agents, the communication fabric) use it to extend
// the trace stream with their own component events.
func (e *Engine) Emit(kind trace.Kind, comp string, arg int64) {
	if e.tracer == nil {
		return
	}
	e.record(trace.Event{At: int64(e.now), Seq: e.seq, Kind: kind, Comp: comp, Arg: arg})
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// NextAt returns the timestamp of the earliest pending event, or false if
// none are pending. Lane entries fire at the current instant; heap entries
// at their scheduled time. The parallel windowing driver (sim/par) uses it
// to pick the next safe execution window across shard engines. It only
// peeks: events may still be scheduled anywhere at or after Now.
func (e *Engine) NextAt() (Time, bool) {
	if e.lane.len() > 0 {
		return e.now, true
	}
	if e.heap.len() > 0 {
		return e.heap.peek(), true
	}
	return 0, false
}

// QueueStats counts the work of an engine's timer queue: the events it
// took (Schedule with a positive delay), the settles that refilled its
// current instant from a later bucket, the entries those settles moved,
// and the most events it held when it moved on to a new instant (every
// instant starts with a settle) or when it was read. Events scheduled
// for the current instant go through the fast lane and count in none of
// them. No counter touches the push or pop fast path: pushes are derived
// from the pops, which are added up as chunks drain.
type QueueStats struct {
	Pushes, Settles, SettleMoves uint64
	PeakPending                  int
}

// Add sums o into q, keeping the larger peak.
func (q *QueueStats) Add(o QueueStats) {
	q.Pushes += o.Pushes
	q.Settles += o.Settles
	q.SettleMoves += o.SettleMoves
	q.PeakPending = max(q.PeakPending, o.PeakPending)
}

// QueueStats returns the timer queue's work counts so far.
func (e *Engine) QueueStats() QueueStats { return e.heap.stats() }

func (h *eventHeap) stats() QueueStats {
	pops := h.pops + uint64(h.head)
	return QueueStats{Pushes: pops + uint64(h.n), Settles: h.settles, SettleMoves: h.moves,
		PeakPending: max(h.peak, h.n)}
}

// Scheduled returns the cumulative count of scheduled events — the
// engine's sequence counter. sim/par reports it per shard so load
// imbalance across a partition is visible.
func (e *Engine) Scheduled() uint64 { return e.seq }

// RunEvents executes events with timestamps <= t like RunUntil, but
// leaves the clock at the last fired event instead of advancing it to t.
// The parallel windowing driver uses it so a shard's clock never runs
// ahead of its own last event: cross-shard deliveries inserted between
// windows then always land at or after the receiving engine's present,
// and the final clock alignment can recover the global last-event time.
func (e *Engine) RunEvents(t Time) error { return e.run(t) }

// Live returns the number of spawned processes that have not terminated.
func (e *Engine) Live() int { return e.live }

// Pending returns the number of scheduled events that have not fired.
func (e *Engine) Pending() int { return e.heap.len() + e.lane.len() }

// Schedule runs fn at now+d. A negative delay panics.
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: schedule in the past (delay %v)", d))
	}
	e.seq++
	if e.tracer != nil {
		e.record(trace.Event{At: int64(e.now), Seq: e.seq, Kind: trace.KSchedule, Arg: int64(d)})
	}
	if d == 0 {
		e.lane.push(&e.heap, event{at: e.now, seq: e.seq, fn: fn})
	} else {
		e.heap.push(event{at: e.now + d, seq: e.seq, fn: fn})
	}
}

// Run executes events in timestamp order until no events remain, Stop is
// called, or a process panics. It returns the first process failure, if any.
// Processes still blocked when the event queue drains are reported as a
// deadlock error.
//
// When the run ends, every still-blocked process (daemons like
// communication agents, and any deadlocked process) is reaped so its
// goroutine exits and the simulation's memory can be reclaimed. A reaped
// engine cannot be resumed.
func (e *Engine) Run() error {
	err := e.run(-1)
	e.Shutdown()
	return err
}

// Shutdown reaps every blocked process goroutine and ends every blocked
// task, in spawn order. Called automatically at the end of Run; call it
// manually after a final RunUntil. Afterwards the engine is down: further
// runs fire no events and further spawns never start, so no goroutine can
// outlive a shut-down engine.
func (e *Engine) Shutdown() {
	e.down = true
	e.actors.each(func(a actor) {
		if p := a.p; p != nil && !p.dead && p.started {
			p.killed = true
			e.transfer(p)
		}
		if t := a.t; t != nil && !t.dead && t.started {
			t.end(1)
		}
	})
	e.actors = actorList{}
	e.FlushTrace()
}

// RunUntil executes events with timestamps <= t, leaving later events
// pending. Simulated time advances to t if the run is not cut short.
func (e *Engine) RunUntil(t Time) error {
	err := e.run(t)
	if err == nil && !e.stopped && e.now < t {
		e.now = t
	}
	return err
}

// run is the event loop. The next event is the minimum of the heap's
// next entry and the lane head under the (at, seq) order; the comparison
// reduces to one check because of the lane invariant: every lane entry
// was pushed while the clock already sat at e.now, so any heap entry with
// at == e.now was scheduled earlier (from a strictly earlier instant) and
// carries a strictly smaller seq. Such entries are exactly the heap's
// bucket 0 when its last pop happened at e.now: heap pushes always land
// strictly after the clock, so once an instant is reached by a pop, the
// settle that reached it gathered all of that instant's entries into
// bucket 0. Any other heap entry loses to the lane on time alone.
func (e *Engine) run(limit Time) error {
	defer e.FlushTrace()
	if e.down {
		return e.failure
	}
	e.running, e.limit = true, limit
	defer func() { e.running = false }()
	for !e.stopped {
		var ev event
		if e.lane.len() > 0 {
			if limit >= 0 && e.now > limit {
				return e.failure
			}
			if e.heap.due(e.now) {
				ev = e.heap.pop()
			} else {
				ev = e.lane.pop(&e.heap)
			}
		} else if e.heap.len() > 0 {
			if limit >= 0 && e.heap.peek() > limit {
				return e.failure
			}
			ev = e.heap.pop()
			e.now = ev.at
		} else {
			break
		}
		if e.tracer != nil {
			e.record(trace.Event{At: int64(ev.at), Seq: ev.seq, Kind: trace.KFire})
		}
		ev.fn()
		if e.failure != nil {
			return e.failure
		}
	}
	if e.failure != nil {
		return e.failure
	}
	if !e.stopped && e.live > 0 && limit < 0 {
		return fmt.Errorf("sim: deadlock: %d process(es) blocked with no pending events at %v", e.live, e.now)
	}
	return nil
}

// Stop halts the run after the current event completes. Blocked processes
// are abandoned (their goroutines are parked forever); use only at the end
// of an experiment.
func (e *Engine) Stop() { e.stopped = true }

// transfer hands control to p and blocks until p parks or terminates.
// It must only be called from engine context (inside an event callback).
// Transfers to a dead process are dropped: its coroutine has returned and
// resuming it would panic.
func (e *Engine) transfer(p *Proc) {
	if p.dead {
		return
	}
	p.next()
}

// Wake schedules p to resume at the current time (after already-scheduled
// events at this timestamp). It pairs with Proc.Park to build custom
// blocking structures outside this package.
func (e *Engine) Wake(p *Proc) {
	e.Schedule(0, p.run)
}

// canRunAhead reports whether a hold until now+d would be the very next
// event to fire: the run is live and not stopped, the lane is empty,
// now+d is within the run's limit, and every heap entry is strictly later
// than now+d (a heap entry at exactly now+d was scheduled earlier, so its
// smaller seq would fire first).
func (e *Engine) canRunAhead(d Time) bool {
	t := e.now + d
	return e.running && !e.stopped && d >= 0 &&
		e.lane.len() == 0 &&
		(e.limit < 0 || t <= e.limit) &&
		(e.heap.len() == 0 || e.heap.peek() > t)
}

// runAhead is a hold that canRunAhead cleared: instead of scheduling p's
// wake, parking and switching back, the engine takes the wake's sequence
// number, records exactly what the scheduled path would have recorded
// (the schedule, the park, the fire, the unpark) and advances the clock,
// and p simply carries on. Nothing can observe the difference: no other
// event would have fired in between, and Scheduled, the trace stream and
// the clock end up identical. The heap is not touched, so its last pop
// time may now lag the clock; nothing depends on their being equal (see
// eventHeap).
func (e *Engine) runAhead(p *Proc, d Time) {
	e.seq++
	if e.tracer != nil {
		e.record(trace.Event{At: int64(e.now), Seq: e.seq, Kind: trace.KSchedule, Arg: int64(d)})
		e.record(trace.Event{At: int64(e.now), Seq: e.seq, Kind: trace.KPark, Comp: p.name})
		e.now += d
		e.record(trace.Event{At: int64(e.now), Seq: e.seq, Kind: trace.KFire})
		e.record(trace.Event{At: int64(e.now), Seq: e.seq, Kind: trace.KUnpark, Comp: p.name})
		return
	}
	e.now += d
}
