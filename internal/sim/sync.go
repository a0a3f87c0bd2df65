package sim

// Flag is a monotonic counter that processes can wait on. It models the
// synchronization words the RMA/RQ primitives set on completion (lsync and
// rsync in the paper): completion increments the counter and a waiting
// process resumes once the count reaches its threshold.
type Flag struct {
	eng     *Engine
	val     int64
	waiters []flagWaiter
}

type flagWaiter struct {
	w    waiter
	need int64
}

// NewFlag returns a flag with value zero.
func (e *Engine) NewFlag() *Flag { return &Flag{eng: e} }

// Value returns the current count.
func (f *Flag) Value() int64 { return f.val }

// Add increments the count by n and wakes satisfied waiters in FIFO order.
func (f *Flag) Add(n int64) {
	if n == 0 {
		return
	}
	f.val += n
	if len(f.waiters) == 0 {
		return
	}
	kept := f.waiters[:0]
	for _, w := range f.waiters {
		if f.val >= w.need {
			f.eng.wakeWaiter(w.w)
		} else {
			kept = append(kept, w)
		}
	}
	f.waiters = kept
}

// Wait blocks p until the count is at least need.
func (f *Flag) Wait(p *Proc, need int64) {
	for f.val < need {
		f.waiters = append(f.waiters, flagWaiter{waiter{p: p}, need})
		p.Park()
	}
}

// WaitTask runs k once the count is at least need — immediately if it
// already is, otherwise after parking t. No re-check loop is needed: Add
// only wakes a waiter whose threshold is met, and each waiter receives
// exactly one wake.
func (f *Flag) WaitTask(t *Task, need int64, k func()) {
	if f.val >= need {
		k()
		return
	}
	f.waiters = append(f.waiters, flagWaiter{waiter{t: t}, need})
	t.Park(k)
}
