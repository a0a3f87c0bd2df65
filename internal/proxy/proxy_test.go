package proxy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCommandQueueFIFO(t *testing.T) {
	q := NewCommandQueue[any](0, 4)
	for i := 0; i < 3; i++ {
		if err := q.Enqueue(0, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		v, ok := q.Dequeue()
		if !ok || v.(int) != i {
			t.Fatalf("dequeue %d: %v %v", i, v, ok)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue from empty queue")
	}
}

func TestCommandQueueFull(t *testing.T) {
	q := NewCommandQueue[any](0, 2)
	_ = q.Enqueue(0, 1)
	_ = q.Enqueue(0, 2)
	if err := q.Enqueue(0, 3); err != ErrFull {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if q.FullHits() != 1 {
		t.Fatalf("fullHits = %d", q.FullHits())
	}
	// Draining one entry frees a slot.
	q.Dequeue()
	if err := q.Enqueue(0, 3); err != nil {
		t.Fatal(err)
	}
}

func TestCommandQueueWrapAround(t *testing.T) {
	q := NewCommandQueue[any](0, 3)
	next := 0
	for round := 0; round < 10; round++ {
		_ = q.Enqueue(0, round*2)
		_ = q.Enqueue(0, round*2+1)
		for i := 0; i < 2; i++ {
			v, ok := q.Dequeue()
			if !ok || v.(int) != next {
				t.Fatalf("round %d: got %v want %d", round, v, next)
			}
			next++
		}
	}
	if q.Enqueued() != 20 {
		t.Fatalf("enqueued = %d", q.Enqueued())
	}
}

func TestForeignProducerFaults(t *testing.T) {
	q := NewCommandQueue[any](7, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign producer did not fault")
		}
	}()
	_ = q.Enqueue(8, "intruder")
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCommandQueue[any](0, 0)
}

func TestScannerRoundRobin(t *testing.T) {
	s := NewScanner[any]()
	var qs []*CommandQueue[any]
	for i := 0; i < 3; i++ {
		q := NewCommandQueue[any](i, 8)
		idx := s.Register(q)
		if idx != i {
			t.Fatalf("index = %d", idx)
		}
		qs = append(qs, q)
	}
	// Two commands in each queue; round-robin must interleave them.
	for i, q := range qs {
		_ = q.Enqueue(i, i*10)
		_ = q.Enqueue(i, i*10+1)
		s.MarkNonEmpty(i)
	}
	var order []int
	for {
		cmd, _, ok := s.Next()
		if !ok {
			break
		}
		order = append(order, cmd.(int))
	}
	want := []int{0, 10, 20, 1, 11, 21}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScannerEmpty(t *testing.T) {
	s := NewScanner[any]()
	if _, _, ok := s.Next(); ok {
		t.Fatal("empty scanner produced a command")
	}
	q := NewCommandQueue[any](0, 2)
	s.Register(q)
	if _, _, ok := s.Next(); ok {
		t.Fatal("scanner with empty queue produced a command")
	}
}

func TestScannerStaleBit(t *testing.T) {
	s := NewScanner[any]()
	q := NewCommandQueue[any](0, 4)
	s.Register(q)
	_ = q.Enqueue(0, 1)
	s.MarkNonEmpty(0)
	// Consume behind the scanner's back; the bit is now stale.
	q.Dequeue()
	if _, _, ok := s.Next(); ok {
		t.Fatal("scanner returned a phantom command")
	}
}

func TestScannerBitVectorSavesHeadChecks(t *testing.T) {
	// 100 queues, only one non-empty: head checks must not scale with the
	// number of registered queues.
	s := NewScanner[any]()
	var target *CommandQueue[any]
	for i := 0; i < 100; i++ {
		q := NewCommandQueue[any](i, 2)
		s.Register(q)
		if i == 77 {
			target = q
		}
	}
	_ = target.Enqueue(77, "cmd")
	s.MarkNonEmpty(77)
	cmd, idx, ok := s.Next()
	if !ok || idx != 77 || cmd != "cmd" {
		t.Fatalf("got %v %d %v", cmd, idx, ok)
	}
	if s.HeadChecks() != 1 {
		t.Fatalf("head checks = %d, want 1", s.HeadChecks())
	}
	if s.Probes() > 4 {
		t.Fatalf("probes = %d, want <= 4 word probes", s.Probes())
	}
}

func TestScannerManyQueuesFairness(t *testing.T) {
	// Every queue keeps producing; consumption counts must stay balanced
	// (no starvation) thanks to round-robin order.
	const nq = 10
	s := NewScanner[any]()
	qs := make([]*CommandQueue[any], nq)
	for i := range qs {
		qs[i] = NewCommandQueue[any](i, 4)
		s.Register(qs[i])
	}
	counts := make([]int, nq)
	for round := 0; round < 100; round++ {
		for i, q := range qs {
			if q.Enqueue(i, i) == nil {
				s.MarkNonEmpty(i)
			}
		}
		for k := 0; k < nq; k++ {
			if cmd, _, ok := s.Next(); ok {
				counts[cmd.(int)]++
			}
		}
	}
	for i, c := range counts {
		if c < 90 || c > 110 {
			t.Fatalf("queue %d served %d times; counts=%v", i, c, counts)
		}
	}
}

func TestPropertyQueuePreservesOrder(t *testing.T) {
	// Property: any interleaving of enqueues and dequeues that respects
	// capacity yields FIFO order.
	f := func(ops []bool) bool {
		q := NewCommandQueue[any](0, 5)
		nextIn, nextOut := 0, 0
		for _, isEnq := range ops {
			if isEnq {
				if err := q.Enqueue(0, nextIn); err == nil {
					nextIn++
				}
			} else if v, ok := q.Dequeue(); ok {
				if v.(int) != nextOut {
					return false
				}
				nextOut++
			}
		}
		for {
			v, ok := q.Dequeue()
			if !ok {
				break
			}
			if v.(int) != nextOut {
				return false
			}
			nextOut++
		}
		return nextIn == nextOut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLenMatchesRing(t *testing.T) {
	// The maintained count must equal a brute-force count of valid ring
	// entries after every operation. The enqueue bias flips every 50 ops,
	// so the sequence both fills the ring (ErrFull bounces) and drains it
	// (dequeues from empty).
	q := NewCommandQueue[any](0, 5)
	rnd := rand.New(rand.NewSource(1))
	emptyDeqs := 0
	for op := 0; op < 10_000; op++ {
		enqBias := 1
		if op/50%2 == 1 {
			enqBias = 2
		}
		if rnd.Intn(3) < enqBias {
			_ = q.Enqueue(0, op)
		} else if _, ok := q.Dequeue(); !ok {
			emptyDeqs++
		}
		valid := 0
		for i := range q.ring {
			if q.ring[i].valid {
				valid++
			}
		}
		if q.Len() != valid {
			t.Fatalf("op %d: Len() = %d, ring holds %d", op, q.Len(), valid)
		}
	}
	if q.FullHits() == 0 || emptyDeqs == 0 {
		t.Fatalf("sequence never hit full (%d) or empty (%d)", q.FullHits(), emptyDeqs)
	}
}

func TestPropertyScannerConservation(t *testing.T) {
	// Property: the scanner eventually yields exactly the commands that
	// were enqueued, no more, no fewer.
	f := func(load []uint8) bool {
		if len(load) == 0 {
			return true
		}
		if len(load) > 20 {
			load = load[:20]
		}
		s := NewScanner[any]()
		total := 0
		for i, l := range load {
			q := NewCommandQueue[any](i, 256)
			s.Register(q)
			for k := 0; k < int(l%8); k++ {
				if q.Enqueue(i, k) == nil {
					total++
				}
			}
			if !q.Empty() {
				s.MarkNonEmpty(i)
			}
		}
		got := 0
		for {
			if _, _, ok := s.Next(); !ok {
				break
			}
			got++
		}
		return got == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSuspendResume(t *testing.T) {
	s := NewScanner[any]()
	qs := make([]*CommandQueue[any], 3)
	for i := range qs {
		qs[i] = NewCommandQueue[any](i, 8)
		s.Register(qs[i])
	}
	// Suspend queue 1 (its process was descheduled); its commands must
	// not be scanned.
	s.Suspend(1)
	if !s.Suspended(1) || s.Suspended(0) {
		t.Fatal("suspension state wrong")
	}
	for i, q := range qs {
		_ = q.Enqueue(i, i*10)
		s.MarkNonEmpty(i)
	}
	var got []int
	for {
		cmd, _, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, cmd.(int))
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 20 {
		t.Fatalf("scanned %v, want [0 20]", got)
	}
	// Resume: the parked command becomes visible.
	s.Resume(1)
	cmd, idx, ok := s.Next()
	if !ok || idx != 1 || cmd.(int) != 10 {
		t.Fatalf("after resume: %v %d %v", cmd, idx, ok)
	}
}

func TestSuspendEmptyQueueResume(t *testing.T) {
	s := NewScanner[any]()
	q := NewCommandQueue[any](0, 4)
	s.Register(q)
	s.Suspend(0)
	s.Resume(0) // empty: no spurious bit
	if _, _, ok := s.Next(); ok {
		t.Fatal("phantom command after resume of empty queue")
	}
}

func TestCommandQueueModel(t *testing.T) {
	// 10k seeded random operations checked against a brute-force FIFO at
	// capacities that start below, at, and far above the initial ring:
	// FIFO order must survive every growth, ErrFull must come exactly at
	// the logical capacity, and the accessors must agree with the model
	// after every operation.
	for _, capacity := range []int{1, 3, 64, 1024} {
		q := NewCommandQueue[int](0, capacity)
		var model []int
		rnd := rand.New(rand.NewSource(int64(capacity)))
		fullHits, next := int64(0), 0
		sawFull, sawEmpty := false, false
		for op := 0; op < 10_000; op++ {
			// Drift between enqueue-heavy and dequeue-heavy phases so the
			// queue both reaches capacity and drains to empty.
			enqBias := 3
			if op/(2*capacity+20)%2 == 1 {
				enqBias = 1
			}
			if rnd.Intn(4) < enqBias {
				err := q.Enqueue(0, next)
				if len(model) == capacity {
					if err != ErrFull {
						t.Fatalf("cap %d op %d: Enqueue at %d queued = %v, want ErrFull", capacity, op, len(model), err)
					}
					fullHits++
					sawFull = true
				} else {
					if err != nil {
						t.Fatalf("cap %d op %d: Enqueue at %d queued = %v", capacity, op, len(model), err)
					}
					model = append(model, next)
					next++
				}
			} else {
				got, ok := q.Dequeue()
				if len(model) == 0 {
					if ok {
						t.Fatalf("cap %d op %d: Dequeue from empty returned %d", capacity, op, got)
					}
					sawEmpty = true
				} else {
					if !ok || got != model[0] {
						t.Fatalf("cap %d op %d: Dequeue = %d, %v; want %d", capacity, op, got, ok, model[0])
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) || q.Cap() != capacity || q.Empty() != (len(model) == 0) || q.FullHits() != fullHits {
				t.Fatalf("cap %d op %d: Len %d Cap %d Empty %v FullHits %d; model %d, %d, %v, %d",
					capacity, op, q.Len(), q.Cap(), q.Empty(), q.FullHits(),
					len(model), capacity, len(model) == 0, fullHits)
			}
			if len(q.ring) > capacity {
				t.Fatalf("cap %d op %d: ring grew to %d entries", capacity, op, len(q.ring))
			}
		}
		if !sawFull || !sawEmpty {
			t.Fatalf("cap %d: sequence never hit full (%v) or empty (%v)", capacity, sawFull, sawEmpty)
		}
	}
}

func TestCommandQueueStartsSmall(t *testing.T) {
	// An idle queue holds only the initial ring, whatever its capacity.
	q := NewCommandQueue[int](0, 1024)
	if len(q.ring) != initialRing {
		t.Fatalf("fresh ring has %d entries, want %d", len(q.ring), initialRing)
	}
	for i := 0; i < initialRing+1; i++ {
		if err := q.Enqueue(0, i); err != nil {
			t.Fatal(err)
		}
	}
	if len(q.ring) != 2*initialRing {
		t.Fatalf("ring after %d enqueues has %d entries, want %d", initialRing+1, len(q.ring), 2*initialRing)
	}
}
