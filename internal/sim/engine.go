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
// time of the last pop, and every queued event has at >= last. Bucket 0
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
// below a peeked minimum. Vacated slots are zeroed so fired closures
// become GC-able while the bucket arrays are reused for the whole run.
type eventHeap struct {
	last Time
	n    int
	head int    // bucket 0's next entry to pop
	mask uint64 // bit k set when bucket k is non-empty
	b    [64][]event
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
	h.b[k] = append(h.b[k], ev)
	h.mask |= 1 << k
	h.n++
}

// due reports whether events at exactly t are next: bucket 0 is
// non-empty and the last pop happened at t.
func (h *eventHeap) due(t Time) bool { return h.head < len(h.b[0]) && h.last == t }

// lowest returns the lowest occupied bucket above 0 and its minimum time.
// Bucket 0 must be empty and the queue non-empty.
func (h *eventHeap) lowest() (int, Time) {
	k := bits.TrailingZeros64(h.mask)
	m := h.b[k][0].at
	for _, ev := range h.b[k][1:] {
		m = min(m, ev.at)
	}
	return k, m
}

// peek returns the minimum pending time without moving last. The queue
// must be non-empty.
func (h *eventHeap) peek() Time {
	if h.head < len(h.b[0]) {
		return h.last
	}
	_, m := h.lowest()
	return m
}

// pop removes and returns the (at, seq)-minimum event. The queue must
// be non-empty.
func (h *eventHeap) pop() event {
	if h.head == len(h.b[0]) {
		h.settle()
	}
	b0 := h.b[0]
	ev := b0[h.head]
	b0[h.head] = event{} // clear the vacated slot: the closure must be collectable
	h.head++
	if h.head == len(b0) {
		h.b[0] = b0[:0]
		h.head = 0
		h.mask &^= 1
	}
	h.n--
	return ev
}

// settle refills the drained bucket 0 from the lowest occupied bucket.
func (h *eventHeap) settle() {
	k, m := h.lowest()
	b := h.b[k]
	h.last = m
	for _, ev := range b {
		j := h.bucket(ev.at)
		h.b[j] = append(h.b[j], ev)
		h.mask |= 1 << j
	}
	clear(b)
	h.b[k] = b[:0]
	h.mask &^= 1 << k
}

// eventLane is the same-timestamp FIFO fast lane. Every Schedule(0, ...)
// and Wake — the dominant case, one per process handoff — lands here and
// bypasses the heap entirely: events pushed while the clock sits at `now`
// can only fire at `now`, in push order, so a ring suffices. The buffer
// resets to its start whenever it drains, reusing its capacity forever.
type eventLane struct {
	buf  []event
	head int
}

func (l *eventLane) push(ev event) { l.buf = append(l.buf, ev) }

func (l *eventLane) len() int { return len(l.buf) - l.head }

func (l *eventLane) pop() event {
	ev := l.buf[l.head]
	l.buf[l.head] = event{} // clear: fired closures must be collectable
	l.head++
	if l.head == len(l.buf) {
		l.buf = l.buf[:0]
		l.head = 0
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
	heap eventHeap
	lane eventLane

	live    int   // spawned processes/tasks that have not yet terminated
	failure error // first panic captured from a process body
	stopped bool
	// down is set by Shutdown: a reaped engine cannot be resumed, so
	// later runs fire nothing and later spawns never start (closing the
	// goroutine-leak window of a spawn event firing after its engine was
	// shut down and its actor list discarded).
	down   bool
	actors []actor // every spawned Proc and Task, in spawn order

	// tracer, when non-nil, receives one trace.Event per engine
	// occurrence. The nil check is the entire disabled-tracer cost.
	// When the tracer is batch-capable (batch non-nil), events stage in
	// tbuf and flush in order — on a full buffer, at the end of every
	// run, and from FlushTrace.
	tracer trace.Tracer
	batch  trace.BatchTracer
	tbuf   []trace.Event
}

// NewEngine returns an engine at time zero with no pending events.
func NewEngine() *Engine { return &Engine{} }

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
		e.lane.push(event{at: e.now, seq: e.seq, fn: fn})
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
	for _, a := range e.actors {
		if p := a.p; p != nil && !p.dead && p.started {
			p.killed = true
			e.transfer(p)
		}
		if t := a.t; t != nil && !t.dead && t.started {
			t.end(1)
		}
	}
	e.actors = nil
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
	for !e.stopped {
		var ev event
		if e.lane.len() > 0 {
			if limit >= 0 && e.now > limit {
				return e.failure
			}
			if e.heap.due(e.now) {
				ev = e.heap.pop()
			} else {
				ev = e.lane.pop()
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
