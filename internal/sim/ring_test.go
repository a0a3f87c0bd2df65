package sim

import (
	"math/rand"
	"testing"
)

// ringModel drives a Ring[*int] and a brute-force slice FIFO side by
// side. After every operation it checks that the two agree, that every
// slot outside the live window is zeroed (a consumed item must be
// collectable), and that the array stays within twice the high-water
// length.
type ringModel struct {
	t     testing.TB
	r     Ring[*int]
	model []*int
	next  int
	high  int
}

func (m *ringModel) push() {
	x := new(int)
	*x = m.next
	m.next++
	m.r.Push(x)
	m.model = append(m.model, x)
	m.high = max(m.high, len(m.model))
}

func (m *ringModel) pop(op int) {
	if len(m.model) == 0 {
		return
	}
	got := m.r.Pop()
	if got != m.model[0] {
		m.t.Fatalf("op %d: Pop = %d, want %d", op, *got, *m.model[0])
	}
	m.model = m.model[1:]
}

func (m *ringModel) check(op int) {
	r := &m.r
	if r.Len() != len(m.model) {
		m.t.Fatalf("op %d: Len = %d, model %d", op, r.Len(), len(m.model))
	}
	for i, x := range r.buf[r.head:] {
		if x != m.model[i] {
			m.t.Fatalf("op %d: live slot %d = %p, model %p", op, i, x, m.model[i])
		}
	}
	for i, x := range r.buf[:r.head] {
		if x != nil {
			m.t.Fatalf("op %d: consumed slot %d still holds %d", op, i, *x)
		}
	}
	for i, x := range r.buf[len(r.buf):cap(r.buf)] {
		if x != nil {
			m.t.Fatalf("op %d: spare slot %d holds %d", op, len(r.buf)+i, *x)
		}
	}
	if c := cap(r.buf); c > max(1, 2*m.high) {
		m.t.Fatalf("op %d: capacity %d exceeds twice the high-water %d", op, c, m.high)
	}
}

func TestRingModel(t *testing.T) {
	// 10k seeded random operations per bias period, drifting between
	// push-heavy and pop-heavy phases so the ring both grows, compacts
	// while live, and drains to empty.
	for _, period := range []int{3, 40, 500} {
		m := &ringModel{t: t}
		rnd := rand.New(rand.NewSource(int64(period)))
		sawCompact, sawEmpty := false, false
		for op := 0; op < 10_000; op++ {
			bias := 3
			if op/period%2 == 1 {
				bias = 1
			}
			if rnd.Intn(4) < bias {
				before := cap(m.r.buf)
				full := len(m.r.buf) == before && m.r.head > 0
				m.push()
				sawCompact = sawCompact || full && cap(m.r.buf) == before
			} else {
				m.pop(op)
				sawEmpty = sawEmpty || len(m.model) == 0
			}
			m.check(op)
		}
		if !sawCompact || !sawEmpty {
			t.Fatalf("period %d: sequence never compacted (%v) or drained (%v)", period, sawCompact, sawEmpty)
		}
	}
}

// FuzzRing checks Ring against the slice model on arbitrary push/pop
// sequences: an even byte pushes, an odd byte pops (a no-op when empty).
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 1, 0, 1, 0, 1})
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The slot check is linear per operation: cap the input at 4096
		// operations.
		data = data[:min(len(data), 4096)]
		m := &ringModel{t: t}
		for op, b := range data {
			if b%2 == 0 {
				m.push()
			} else {
				m.pop(op)
			}
			m.check(op)
		}
	})
}

func TestFIFOCapacityTracksLive(t *testing.T) {
	// A seeded producer/consumer pair that never lets the queue drain and
	// never holds more than live items: the backing array must stay within
	// twice that bound however many items pass through.
	for _, live := range []int{2, 3, 16, 100} {
		e := NewEngine()
		q := NewFIFO[int](e, "q")
		rnd := rand.New(rand.NewSource(int64(live)))
		for op := 0; op < 100_000; op++ {
			if n := q.Len(); n < live && (n <= 1 || rnd.Intn(2) == 0) {
				q.Put(op)
			} else if _, ok := q.TryGet(); !ok {
				t.Fatalf("live %d op %d: TryGet on %d queued items failed", live, op, n)
			}
			if q.Len() == 0 && op > 0 {
				t.Fatalf("live %d op %d: queue drained", live, op)
			}
			if c := cap(q.items.buf); c > 2*live+1 {
				t.Fatalf("live %d op %d: capacity %d with at most %d live items", live, op, c, live)
			}
		}
	}
}
