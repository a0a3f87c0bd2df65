package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// TestPropertyMonotonicTime drives the engine with randomized schedules —
// including events that schedule further events — and asserts the core DES
// invariant: observed fire times never decrease.
func TestPropertyMonotonicTime(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%64 + 1
		e := NewEngine()
		var fired []Time
		var schedule func(depth int)
		schedule = func(depth int) {
			d := Time(rng.Intn(1000))
			e.Schedule(d, func() {
				fired = append(fired, e.Now())
				if depth > 0 && rng.Intn(2) == 0 {
					schedule(depth - 1)
				}
			})
		}
		for i := 0; i < n; i++ {
			schedule(3)
		}
		if err := e.Run(); err != nil {
			t.Logf("run: %v", err)
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			t.Logf("fire times not monotonic: %v", fired)
			return false
		}
		return len(fired) >= n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFIFOTieBreak schedules random batches where many events share
// a timestamp and asserts same-time events fire in scheduling (seq) order.
func TestPropertyFIFOTieBreak(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%100 + 2
		e := NewEngine()
		type obs struct {
			at  Time
			idx int
		}
		var fired []obs
		for i := 0; i < n; i++ {
			i := i
			// Few distinct delays, so ties are common.
			d := Time(rng.Intn(4) * 100)
			e.Schedule(d, func() { fired = append(fired, obs{e.Now(), i}) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at == fired[i-1].at && fired[i].idx < fired[i-1].idx {
				t.Logf("tie at %v broken out of order: idx %d before %d",
					fired[i].at, fired[i-1].idx, fired[i].idx)
				return false
			}
		}
		return len(fired) == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNegativeDelayPanics asserts Schedule panics for every
// negative delay, never silently clamping.
func TestPropertyNegativeDelayPanics(t *testing.T) {
	prop := func(dRaw int64) bool {
		d := dRaw
		if d > 0 {
			d = -d
		}
		if d == 0 {
			d = -1
		}
		e := NewEngine()
		panicked := false
		func() {
			defer func() { panicked = recover() != nil }()
			e.Schedule(Time(d), func() {})
		}()
		return panicked
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzEventHeap drives the radix event queue through its contract —
// every push at or after the last pop's time, including pushes at exactly
// that time — with delays and push/pop interleavings drawn from the fuzz
// bytes, and checks every pop against a brute-force (at, seq) model: the
// order that makes every simulation replayable. Peeks interleaved with
// the pushes check the cached minimum against the model too. It also
// checks that vacated slots are zeroed (no retained closures).
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{1, 0, 2, 5, 3, 9, 0, 0, 5, 0, 0, 0})
	f.Add([]byte{255, 255, 1, 1, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Add([]byte{7, 0, 255, 9, 0, 9, 0, 3, 3, 3, 3, 1, 2, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The model and the slot check are quadratic: keep each input to
		// 512 operations, far more than the queue's 64 buckets need.
		data = data[:min(len(data), 1024)]
		var h eventHeap
		var model []event
		var seq uint64
		var last Time
		nop := func() {}
		modelMin := func() int {
			mi := 0
			for i := range model {
				if a, b := model[i], model[mi]; a.at < b.at || a.at == b.at && a.seq < b.seq {
					mi = i
				}
			}
			return mi
		}
		pop := func() {
			ev := h.pop()
			mi := modelMin()
			want := model[mi]
			model = append(model[:mi], model[mi+1:]...)
			if ev.at != want.at || ev.seq != want.seq {
				t.Fatalf("popped (%v,#%d), want (%v,#%d)", ev.at, ev.seq, want.at, want.seq)
			}
			if ev.fn == nil {
				t.Fatal("pop lost the event payload")
			}
			last = ev.at
			for k := range h.b {
				b := h.b[k]
				vacated := b[len(b):cap(b)]
				if k == 0 {
					vacated = append(b[:h.head:h.head], vacated...)
				}
				for i, v := range vacated {
					if v.fn != nil {
						t.Fatalf("bucket %d: vacated slot %d retains a reference", k, i)
					}
				}
			}
		}
		for len(data) >= 2 {
			op, arg := data[0], data[1]
			data = data[2:]
			if op%4 == 0 && len(model) > 0 {
				pop()
				continue
			}
			if op%4 == 1 && len(model) > 0 {
				if got, want := h.peek(), model[modelMin()].at; got != want {
					t.Fatalf("peek %v, want %v", got, want)
				}
			}
			// The high bits of op scale the delay across bit widths, so
			// pushes reach every bucket; arg 0 pushes at the last pop.
			seq++
			ev := event{at: last + Time(arg)<<(op>>2%48), seq: seq, fn: nop}
			h.push(ev)
			model = append(model, ev)
			if h.len() != len(model) {
				t.Fatalf("len %d, model %d", h.len(), len(model))
			}
		}
		for len(model) > 0 {
			pop()
		}
		if h.len() != 0 || h.mask != 0 {
			t.Fatalf("drained queue reports len %d, mask %#x", h.len(), h.mask)
		}
	})
}

// TestEventHeapPushBehindLastPanics pins the queue's monotone contract:
// an event before the last pop's time cannot be placed, and must panic
// rather than fire out of order.
func TestEventHeapPushBehindLastPanics(t *testing.T) {
	var h eventHeap
	h.push(event{at: 10, seq: 1, fn: nopEvent})
	h.pop()
	h.push(event{at: 10, seq: 2, fn: nopEvent}) // at == last is allowed
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "ran backwards") {
			t.Fatalf("push behind last: recovered %v, want a ran-backwards panic", r)
		}
	}()
	h.push(event{at: 9, seq: 3, fn: nopEvent})
}
