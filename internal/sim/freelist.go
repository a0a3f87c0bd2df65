package sim

// Freelist recycles objects of one type through a LIFO slice, so a hot
// path that needs a scratch object per event allocates only while the
// list grows to its working depth. Like the rest of an engine's state it
// is not safe for concurrent use: a freelist belongs to the object whose
// engine runs the code that takes from and returns to it.
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
