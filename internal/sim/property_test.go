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
// the pushes check the cached minimum against the model too. A fast
// lane shares the queue's chunk free list; lane pushes and pops
// interleave with the queue's and are checked against a FIFO model.
// After every pop it checks the chunk layout (see checkChunks).
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
		lane := eventLane{fill: chunkLen}
		var model, laneModel []event
		var seq, pushes uint64
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
			checkChunks(t, &h, &lane)
			if got := h.stats().Pushes; got != pushes {
				t.Fatalf("queue counts %d pushes after a pop, made %d", got, pushes)
			}
		}
		for len(data) >= 2 {
			op, arg := data[0], data[1]
			data = data[2:]
			if op%4 == 3 && arg&1 == 1 {
				if arg&2 != 0 && lane.len() > 0 {
					ev := lane.pop(&h)
					if want := laneModel[0]; ev.seq != want.seq || ev.fn == nil {
						t.Fatalf("lane popped #%d, want #%d", ev.seq, want.seq)
					}
					laneModel = laneModel[1:]
					checkChunks(t, &h, &lane)
					continue
				}
				seq++
				ev := event{at: last, seq: seq, fn: nop}
				lane.push(&h, ev)
				laneModel = append(laneModel, ev)
				if lane.len() != len(laneModel) {
					t.Fatalf("lane len %d, model %d", lane.len(), len(laneModel))
				}
				continue
			}
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
			pushes++
			if h.len() != len(model) {
				t.Fatalf("len %d, model %d", h.len(), len(model))
			}
			if got := h.stats().Pushes; got != pushes {
				t.Fatalf("queue counts %d pushes, made %d", got, pushes)
			}
		}
		for len(model) > 0 {
			pop()
		}
		for len(laneModel) > 0 {
			if ev := lane.pop(&h); ev.seq != laneModel[0].seq {
				t.Fatalf("lane popped #%d, want #%d", ev.seq, laneModel[0].seq)
			}
			laneModel = laneModel[1:]
			checkChunks(t, &h, &lane)
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
// anywhere in a free chunk — keeps a closure. The lane's list, which
// draws on the same free list, obeys the same rules, and no chunk is in
// two lists at once.
func checkChunks(t *testing.T, h *eventHeap, l *eventLane) {
	t.Helper()
	seen := map[*chunk]string{}
	own := func(c *chunk, where string) {
		if prev, ok := seen[c]; ok {
			t.Fatalf("chunk %p is in %s and in %s", c, prev, where)
		}
		seen[c] = where
	}
	checkList := func(where string, c, tail *chunk, head, room int, empty bool) {
		if (c == nil) != (tail == nil) || c == nil && !empty ||
			c == nil && room != 0 || room < 0 || room > chunkLen ||
			empty && (c != nil && (room != chunkLen || c.next != nil) || head != 0) {
			t.Fatalf("%s: first %p, tail %p, head %d, room %d disagree (empty %v)", where, c, tail, head, room, empty)
		}
		from := head
		for ; c != nil; c = c.next {
			own(c, where)
			to := chunkLen
			if c.next == nil {
				if c != tail {
					t.Fatalf("%s: list ends before its tail", where)
				}
				to = chunkLen - room
			}
			for i := range c.ev {
				if (i < from || i >= to) && c.ev[i].fn != nil {
					t.Fatalf("%s: vacated slot %d retains a reference", where, i)
				}
			}
			from = 0
		}
	}
	for k, c := range h.first {
		head := 0
		if k == 0 {
			head = h.head
		}
		checkList(fmt.Sprintf("bucket %d", k), c, h.tail[k], head, h.room[k], h.mask&(1<<k) == 0)
	}
	laneRoom := 0
	if l.tail != nil {
		laneRoom = chunkLen - l.fill
	}
	checkList("lane", l.first, l.tail, l.head, laneRoom, l.n == 0)
	for c := h.free; c != nil; c = c.next {
		own(c, "the free list")
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
	checkChunks(t, &h, &eventLane{fill: chunkLen})
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

// TestLaneBurstFeedsTheQueue pins where a same-instant burst's memory
// goes: the lane keeps one chunk once it drains and returns the others
// to the queue's free list, where later timer events find them instead
// of allocating. (A 1,024-node cluster spawns its agents in such a burst
// at t = 0.)
func TestLaneBurstFeedsTheQueue(t *testing.T) {
	const burst = 5000
	e := NewEngine()
	nop := func() {}
	for i := 0; i < burst; i++ {
		e.Schedule(0, nop)
	}
	if err := e.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	lane := 0
	for c := e.lane.first; c != nil; c = c.next {
		lane++
	}
	all := (burst + chunkLen - 1) / chunkLen
	if held := e.heap.chunksHeld(); lane != 1 || held != all-1 {
		t.Fatalf("after a %d-event burst the lane holds %d chunks and the queue %d, want 1 and %d", burst, lane, held, all-1)
	}
	for i := 1; i <= 1000; i++ {
		e.Schedule(Time(i), nop)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if held := e.heap.chunksHeld(); held != all-1 {
		t.Fatalf("timer events after the burst left the queue with %d chunks, want the burst's %d", held, all-1)
	}
	checkChunks(t, &e.heap, &e.lane)
}

// TestQueueStats pins the timer queue's counters on a schedule whose
// counts are known: 100 timers at distinct instants (and 100 lane events,
// which count nowhere) take 100 pushes and one settle per instant, with
// all 100 pending at the first, and reading mid-run derives the same
// push count from the pops so far.
func TestQueueStats(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	for i := 1; i <= 100; i++ {
		e.Schedule(Time(i), nop)
		e.Schedule(0, nop)
	}
	if st := e.QueueStats(); st != (QueueStats{Pushes: 100, PeakPending: 100}) {
		t.Fatalf("before the run: %+v", st)
	}
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if st := e.QueueStats(); st.Pushes != 100 || st.Settles != 50 || st.PeakPending != 100 {
		t.Fatalf("at t = 50: %+v, want 100 pushes, 50 settles, peak 100", st)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := e.QueueStats(); st.Pushes != 100 || st.Settles != 100 || st.PeakPending != 100 {
		t.Fatalf("after the run: %+v, want 100 pushes, 100 settles, peak 100", st)
	}
}
