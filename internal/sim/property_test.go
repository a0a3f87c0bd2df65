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
// the pushes check the cached minimum against the model too. After
// every pop it checks the chunk layout (see checkChunks).
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
			checkChunks(t, &h)
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

// checkChunks checks the queue's chunk layout: each bucket's list ends
// at its tail and its fill slice covers the tail's filled slots, an empty
// bucket keeps at most one chunk and nothing in it, and no slot outside
// the pending entries — past a bucket's fill, before bucket 0's head, or
// anywhere in a free chunk — keeps a closure.
func checkChunks(t *testing.T, h *eventHeap) {
	t.Helper()
	for k, c := range h.first {
		empty := h.mask&(1<<k) == 0
		if (c == nil) != (h.tail[k] == nil) || c == nil && !empty ||
			c == nil && h.room[k] != 0 || h.room[k] < 0 || h.room[k] > chunkLen ||
			empty && (c != nil && (h.room[k] != chunkLen || c.next != nil) || k == 0 && h.head != 0) {
			t.Fatalf("bucket %d: first %p, tail %p, room %d, mask %#x disagree", k, c, h.tail[k], h.room[k], h.mask)
		}
		from := 0
		if k == 0 {
			from = h.head
		}
		for ; c != nil; c = c.next {
			to := chunkLen
			if c.next == nil {
				if c != h.tail[k] {
					t.Fatalf("bucket %d: list ends before its tail", k)
				}
				to = chunkLen - h.room[k]
			}
			for i := range c.ev {
				if (i < from || i >= to) && c.ev[i].fn != nil {
					t.Fatalf("bucket %d: vacated slot %d retains a reference", k, i)
				}
			}
			from = 0
		}
	}
	for c := h.free; c != nil; c = c.next {
		for i := range c.ev {
			if c.ev[i].fn != nil {
				t.Fatalf("free chunk slot %d retains a reference", i)
			}
		}
	}
}

// chunksHeld counts the chunks the queue holds: in its buckets and on
// its free list.
func (h *eventHeap) chunksHeld() int {
	n := 0
	for _, c := range h.first {
		for ; c != nil; c = c.next {
			n++
		}
	}
	for c := h.free; c != nil; c = c.next {
		n++
	}
	return n
}

// TestEventQueueMemoryTracksPending pins the chunk store's memory
// contract: however the events spread over the buckets over a run, the
// queue holds no more chunks than its peak pending events fill plus one
// per bucket. The run keeps at most 256 events
// pending, but sweeps them through every delay scale from 2^4 to 2^40 ns
// and scatters them at random in between, so every bucket sees a deep
// backlog at some point: a queue that gave each bucket its own array,
// grown to that bucket's own high-water, held 4.5 times the bound here.
func TestEventQueueMemoryTracksPending(t *testing.T) {
	const pending = 256
	var h eventHeap
	var seq uint64
	rng := rand.New(rand.NewSource(1))
	push := func(d Time) {
		seq++
		h.push(event{at: h.last + d, seq: seq, fn: nopEvent})
	}
	for scale := 4; scale <= 40; scale++ {
		// One instant-dense burst at this scale, drained...
		for h.len() < pending {
			push(1<<scale + Time(rng.Intn(pending)))
		}
		for h.len() > 0 {
			h.pop()
		}
		// ...then a steady random mix across all scales.
		for i := 0; i < 4*pending; i++ {
			if h.len() == pending {
				h.pop()
			}
			push(Time(rng.Int63n(1 << (1 + rng.Intn(scale)))))
		}
		for h.len() > 0 {
			h.pop()
		}
	}
	bound := (pending+chunkLen-1)/chunkLen + 64
	if got := h.chunksHeld(); got > bound {
		t.Fatalf("queue holds %d chunks after a run with at most %d events pending, want <= %d", got, pending, bound)
	}
	checkChunks(t, &h)
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
