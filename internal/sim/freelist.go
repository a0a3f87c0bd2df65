package sim

// Freelist recycles objects of one type through a LIFO slice, so a hot
// path that needs a scratch object per event allocates only while the
// list grows to its working depth. Like the rest of an engine's state it
// is not safe for concurrent use: a freelist belongs to one engine (see
// Pool), and only code running in that engine's event context may take
// from or return to it.
type Freelist[T any] struct {
	free []*T
}

// Get pops a recycled object, or returns nil when the list is empty.
func (l *Freelist[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put returns x to the list for a later Get.
func (l *Freelist[T]) Put(x *T) { l.free = append(l.free, x) }

// Len returns the number of objects waiting in the list, for callers
// that bound a pool whose takes and returns need not balance.
func (l *Freelist[T]) Len() int { return len(l.free) }

// Pool returns e's instance of T, creating it zeroed on first use: one
// recycling pool per engine and pool type, shared by every owner whose
// events run on e. A frame is taken from its pool with its owner set, so
// all of an engine's links, CPUs or ports draw from one working set
// instead of each holding its own high-water mark of idle frames.
//
// Callers resolve their pools once, at construction, and keep the
// pointer; the lookup walks the engine's list of pool types and does
// not belong on a hot path. Like the engine, a pool is not safe for
// concurrent use: a parallel run's shards each have their own engine and
// so their own pools. An object may be taken on one engine and returned
// on another (a packet crossing shards); it then moves between the two
// pools.
func Pool[T any](e *Engine) *T {
	for n := e.pools; n != nil; n = n.nextPool() {
		if p, ok := n.(*pool[T]); ok {
			return &p.val
		}
	}
	p := &pool[T]{next: e.pools}
	e.pools = p
	return &p.val
}

// poolNode links an engine's pools into a list, one node per pool type;
// the node's dynamic type is the lookup key.
type poolNode interface{ nextPool() poolNode }

type pool[T any] struct {
	next poolNode
	val  T
}

func (p *pool[T]) nextPool() poolNode { return p.next }
