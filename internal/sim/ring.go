package sim

// Ring is a FIFO of T over one reused backing array: Pop advances a head
// index and zeroes the vacated slot (a consumed item must be
// collectable), and the array resets to its start whenever the ring
// drains. When Push finds the array full and at least half of it already
// consumed, it compacts the live items to the front instead of growing;
// otherwise it moves them into a fresh array twice the live count,
// counting the new item. The array therefore never exceeds twice the
// ring's high-water length, even when a producer and consumer keep the
// ring from ever draining, and a ring that cycles at a steady depth stops
// allocating.
//
// The zero Ring is empty and ready to use.
type Ring[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return len(r.buf) - r.head }

// Push appends x at the tail.
func (r *Ring[T]) Push(x T) {
	if len(r.buf) == cap(r.buf) {
		n := r.Len()
		if r.head > 0 && r.head >= n {
			copy(r.buf, r.buf[r.head:])
			clear(r.buf[n:])
			r.buf = r.buf[:n]
		} else {
			buf := make([]T, n, 2*(n+1))
			copy(buf, r.buf[r.head:])
			r.buf = buf
		}
		r.head = 0
	}
	r.buf = append(r.buf, x)
}

// Pop removes and returns the head item. It panics on an empty ring.
func (r *Ring[T]) Pop() T {
	x := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.buf, r.head = r.buf[:0], 0
	}
	return x
}
