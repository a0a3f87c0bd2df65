package sim

import "mproxy/internal/trace"

// FIFO is a typed unbounded queue of T with blocking Get. It takes items
// by value, so hot paths do not box each one into an `any` (agent work
// queues see one item per simulated message). Its trace stream is one
// KEnqueue per Put and one KDequeue per successful Get/TryGet, Arg being
// the queue length after the operation.
//
// Items and parked getters live in Rings, so the queue holds at most
// twice its high-water length of host memory, and a steady-state
// producer/consumer pair reuses the same backing arrays forever.
type FIFO[T any] struct {
	eng     *Engine
	name    string
	items   Ring[T]
	getters Ring[waiter]
}

// NewFIFO returns an empty typed queue whose enqueue/dequeue operations
// appear in the trace stream under the given name.
func NewFIFO[T any](e *Engine, name string) *FIFO[T] {
	return &FIFO[T]{eng: e, name: name}
}

// Init makes the zero FIFO q a queue like NewFIFO's, so that a queue can
// live inside the struct that owns it.
func (q *FIFO[T]) Init(e *Engine, name string) { q.eng, q.name = e, name }

// Name returns the queue's trace name.
func (q *FIFO[T]) Name() string { return q.name }

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.items.Len() }

// Put appends x and wakes the first blocked getter, if any.
func (q *FIFO[T]) Put(x T) {
	q.items.Push(x)
	q.eng.Emit(trace.KEnqueue, q.name, int64(q.Len()))
	if q.getters.Len() > 0 {
		q.eng.wakeWaiter(q.getters.Pop())
	}
}

// Get removes and returns the head item, blocking p while the queue is
// empty.
func (q *FIFO[T]) Get(p *Proc) T {
	for q.Len() == 0 {
		q.getters.Push(waiter{p: p})
		p.Park()
	}
	return q.take()
}

// ParkGetter blocks t as a getter, running k at the next Put. k must
// re-check the queue with TryGet — the Task counterpart of Get's re-check
// loop, with identical park/wake trace emissions.
func (q *FIFO[T]) ParkGetter(t *Task, k func()) {
	q.getters.Push(waiter{t: t})
	t.Park(k)
}

// TryGet removes and returns the head item without blocking. It returns
// the zero value and false if the queue is empty.
func (q *FIFO[T]) TryGet() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.take(), true
}

func (q *FIFO[T]) take() T {
	x := q.items.Pop()
	q.eng.Emit(trace.KDequeue, q.name, int64(q.Len()))
	return x
}
