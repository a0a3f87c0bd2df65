package flight

import (
	"math/rand"
	"strings"
	"testing"
)

// clock is a hand-cranked engine clock for driving the recorder.
type clock struct{ ns int64 }

func (c *clock) now() int64 { return c.ns }

func opName(o uint8) string { return [...]string{"GET", "PUT", "SCAN"}[o] }

// TestSegmentsTile drives one replicated PUT through every hook and
// checks the segments tile the measured latency exactly.
func TestSegmentsTile(t *testing.T) {
	c := &clock{ns: 1000}
	r := New(Config{Shards: 4}, c.now)
	id := r.Issue(1, 5, 0, 2, 4, 3, 0xfeed, 800, 120, 40)
	if id == 0 {
		t.Fatal("issue returned 0")
	}
	c.ns = 1500
	r.ServerStart(id, 2)
	c.ns = 1700
	r.ServiceDone(id)
	c.ns = 2600
	r.RepAcked(id)
	c.ns = 3000
	r.Done(id)

	d := r.Finish()
	if len(d.Slowest) != 1 {
		t.Fatalf("slowest has %d records", len(d.Slowest))
	}
	rec := d.Slowest[0]
	want := [NumSegs]int64{200, 500, 200, 900, 400}
	if rec.Seg != want {
		t.Fatalf("segments %v, want %v", rec.Seg, want)
	}
	var sum int64
	for _, s := range rec.Seg {
		sum += s
	}
	if sum != rec.Latency() || rec.Latency() != 3000-800 {
		t.Fatalf("segments sum %d, latency %d", sum, rec.Latency())
	}
	if rec.CmdQDepth != 3 || rec.SrvQDepth != 2 || rec.Hops != 4 {
		t.Fatalf("depth/hops wrong: %+v", rec)
	}
	if d.Clamped != 0 || d.Dropped != 0 || d.Late != 0 {
		t.Fatalf("quality counters moved: %+v", d)
	}
}

// TestTopKDeterministic checks the reservoir keeps exactly the K slowest
// records, breaking latency ties toward the earliest request, however
// the completions interleave.
func TestTopKDeterministic(t *testing.T) {
	c := &clock{}
	r := New(Config{TopK: 3, Shards: 1}, c.now)
	// Latencies: 10, 50, 30, 50, 20, 40 — top-3 = 50(id2), 50(id4), 40(id6).
	lats := []int64{10, 50, 30, 50, 20, 40}
	for _, l := range lats {
		c.ns += 100
		issueAt := c.ns
		id := r.Issue(0, 1, 0, 0, 1, 0, 7, issueAt, 0, 0)
		c.ns = issueAt + l
		r.Done(id)
	}
	d := r.Finish()
	var got []int64
	var ids []uint64
	for _, rec := range d.Slowest {
		got = append(got, rec.Latency())
		ids = append(ids, rec.ID)
	}
	if len(got) != 3 || got[0] != 50 || got[1] != 50 || got[2] != 40 {
		t.Fatalf("latencies %v", got)
	}
	if ids[0] != 2 || ids[1] != 4 || ids[2] != 6 {
		t.Fatalf("ids %v (ties must keep the earlier request first)", ids)
	}
}

// TestRingWraps checks the ring keeps the most recent RingCap records.
func TestRingWraps(t *testing.T) {
	c := &clock{}
	r := New(Config{RingCap: 4, Shards: 1}, c.now)
	for i := 0; i < 10; i++ {
		c.ns += 10
		id := r.Issue(0, 0, 0, 0, 0, 0, 0, c.ns, 0, 0)
		c.ns += 5
		r.Done(id)
	}
	ring, total := r.Ring()
	if total != 10 || len(ring) != 4 {
		t.Fatalf("ring %d records, total %d", len(ring), total)
	}
	for i, rec := range ring {
		if rec.ID != uint64(7+i) {
			t.Fatalf("ring[%d] = id %d, want %d", i, rec.ID, 7+i)
		}
	}
}

// TestSaturationDrops checks the recorder sheds load instead of growing
// when MaxOpen in-flight records are exceeded.
func TestSaturationDrops(t *testing.T) {
	c := &clock{}
	r := New(Config{MaxOpen: 2, Shards: 1}, c.now)
	a := r.Issue(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	b := r.Issue(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if a == 0 || b == 0 {
		t.Fatal("first two issues must be tracked")
	}
	if id := r.Issue(0, 0, 0, 0, 0, 0, 0, 0, 0, 0); id != 0 {
		t.Fatalf("third issue tracked (id %d), want dropped", id)
	}
	r.ServerStart(0, 1) // untracked id: must be a no-op
	r.Done(a)
	if id := r.Issue(0, 0, 0, 0, 0, 0, 0, 0, 0, 0); id == 0 {
		t.Fatal("slot not recycled after Done")
	}
	d := r.Finish()
	if d.Dropped != 1 {
		t.Fatalf("dropped %d, want 1", d.Dropped)
	}
}

// TestSlabFollowsLiveHighWater drives a seeded issue/done stream and
// checks the recorder against the contract of a recorder pre-sized to
// MaxOpen: IDs run 1, 2, ... over tracked issues only, an issue is
// dropped exactly when MaxOpen records are in flight, and the dropped
// count matches. Storage must follow the live high-water mark instead of
// the cap.
func TestSlabFollowsLiveHighWater(t *testing.T) {
	for _, maxOpen := range []int{1, 5, 0} { // 0 picks the 65536 default
		c := &clock{}
		r := New(Config{MaxOpen: maxOpen, Shards: 1}, c.now)
		if len(r.slab) != 0 || len(r.free) != 0 {
			t.Fatalf("MaxOpen %d: New pre-sized %d slab, %d free slots", maxOpen, len(r.slab), len(r.free))
		}
		limit := r.cfg.MaxOpen
		rng := rand.New(rand.NewSource(int64(maxOpen) + 7))
		var open []uint64
		var nextID, dropped uint64
		highWater := 0
		for i := 0; i < 5000; i++ {
			c.ns += 10
			// Issue more often than complete for a while, then drain, so
			// the in-flight count climbs past small caps and falls back.
			if len(open) == 0 || rng.Intn(100) < 55-(i/1000)*5 {
				id := r.Issue(0, 0, 0, 0, 0, 0, 0, c.ns, 0, 0)
				if len(open) == limit {
					dropped++
					if id != 0 {
						t.Fatalf("MaxOpen %d, issue %d: tracked id %d with %d in flight", maxOpen, i, id, len(open))
					}
					continue
				}
				nextID++
				if id != nextID {
					t.Fatalf("MaxOpen %d, issue %d: id %d, want %d", maxOpen, i, id, nextID)
				}
				open = append(open, id)
				highWater = max(highWater, len(open))
				continue
			}
			j := rng.Intn(len(open))
			r.Done(open[j])
			open = append(open[:j], open[j+1:]...)
		}
		if len(r.slab) != highWater {
			t.Fatalf("MaxOpen %d: slab holds %d records, in-flight high-water %d", maxOpen, len(r.slab), highWater)
		}
		if maxOpen > 0 && highWater != maxOpen {
			t.Fatalf("MaxOpen %d: stream never saturated (high-water %d)", maxOpen, highWater)
		}
		if d := r.Finish(); d.Dropped != dropped || d.Tracked != nextID {
			t.Fatalf("MaxOpen %d: dropped %d tracked %d, want %d and %d", maxOpen, d.Dropped, d.Tracked, dropped, nextID)
		}
	}
}

// TestWindowFold checks the series stays within the window budget by
// doubling, and that folding conserves the traffic counts.
func TestWindowFold(t *testing.T) {
	c := &clock{}
	r := New(Config{WindowNs: 100, MaxWindows: 4, Shards: 2}, c.now)
	const n = 400
	for i := 0; i < n; i++ {
		c.ns = int64(i) * 25 // four arrivals per initial window
		id := r.Issue(0, 0, 0, int32(i%2), 0, int32(i%3), 0, c.ns, 0, 0)
		r.Done(id)
	}
	d := r.Finish()
	if len(d.Windows) > 4 {
		t.Fatalf("%d windows, budget 4", len(d.Windows))
	}
	if d.WindowNs <= 100 {
		t.Fatalf("window did not fold: %d ns", d.WindowNs)
	}
	var arr, done int32
	for i := range d.Windows {
		for _, row := range d.Windows[i].ShardRows() {
			arr += row.Arrivals
			done += row.Dones
		}
	}
	if arr != n || done != n {
		t.Fatalf("fold lost traffic: %d arrivals, %d dones, want %d", arr, done, n)
	}
	for i := range d.Windows {
		w := &d.Windows[i]
		if w.EndNs-w.StartNs != d.WindowNs {
			t.Fatalf("window %d is [%d,%d), want length %d", i, w.StartNs, w.EndNs, d.WindowNs)
		}
		if i > 0 && w.StartNs < d.Windows[i-1].EndNs {
			t.Fatalf("windows overlap at %d", i)
		}
	}
}

// TestTierSeries checks per-tier busy deltas land in the right windows.
func TestTierSeries(t *testing.T) {
	c := &clock{}
	busy := []int64{0, 0}
	r := New(Config{WindowNs: 100, Shards: 1}, c.now)
	r.SetTiers([]TierInfo{{Name: "edge", Links: 2}, {Name: "core", Links: 4}},
		func(buf []int64) []int64 { return append(buf[:0], busy...) })
	id := r.Issue(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	r.Done(id)
	busy[0], busy[1] = 40, 10
	c.ns = 150 // crosses the first boundary
	id = r.Issue(0, 0, 0, 0, 0, 0, 0, 140, 0, 0)
	r.Done(id)
	busy[0], busy[1] = 100, 30
	d := r.Finish()
	if len(d.Windows) != 2 {
		t.Fatalf("%d windows, want 2", len(d.Windows))
	}
	if tb := d.Windows[0].TierBusy(); tb[0] != 40 || tb[1] != 10 {
		t.Fatalf("window 0 tier busy %v", tb)
	}
	if tb := d.Windows[1].TierBusy(); tb[0] != 60 || tb[1] != 20 {
		t.Fatalf("window 1 tier busy %v", tb)
	}
}

// TestSteadyStateAllocs pins the per-request recording path at zero
// allocations once the recorder is warm (ring full, reservoir full, no
// window crossings): always-on must mean bounded, not growing.
func TestSteadyStateAllocs(t *testing.T) {
	c := &clock{}
	r := New(Config{RingCap: 8, TopK: 2, MaxOpen: 8, WindowNs: 1 << 60, Shards: 4}, c.now)
	cycle := func() {
		c.ns += 7
		id := r.Issue(1, 3, 0, 1, 2, 1, 0xabc, c.ns, 10, 10)
		c.ns += 3
		r.ServerStart(id, 1)
		c.ns += 2
		r.ServiceDone(id)
		c.ns += 4
		r.RepAcked(id)
		c.ns += 1
		r.Done(id)
	}
	for i := 0; i < 64; i++ {
		cycle() // warm: fill ring, reservoir, map buckets
	}
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Fatalf("steady-state recording allocates %.1f/op, want 0", got)
	}
}

// TestReportDeterminism checks the renderers are pure functions of the
// record stream: two identical runs produce byte-identical output.
func TestReportDeterminism(t *testing.T) {
	run := func() (string, string) {
		c := &clock{}
		r := New(Config{TopK: 4, WindowNs: 1000, Shards: 3}, c.now)
		r.SetTiers([]TierInfo{{Name: "edge", Links: 2}},
			func(buf []int64) []int64 { return append(buf[:0], c.ns/2) })
		for i := 0; i < 50; i++ {
			c.ns += 31
			id := r.Issue(uint8(i%3), int32(i%5), 0, int32(i%3), 2, int32(i%4), uint64(i), c.ns, 5, 5)
			c.ns += int64(13 * (i % 7))
			r.ServerStart(id, i%2)
			c.ns += 11
			r.ServiceDone(id)
			c.ns += 2
			r.Done(id)
		}
		d := r.Finish()
		pts := []NamedPoint{{Arch: "MP1", LoadUs: 160, Data: d}}
		var sb strings.Builder
		WriteSlowest(&sb, pts, opName)
		j, err := ReportJSON(pts, opName)
		if err != nil {
			t.Fatal(err)
		}
		return sb.String(), string(j)
	}
	t1, j1 := run()
	t2, j2 := run()
	if t1 != t2 {
		t.Fatal("slowest table not deterministic")
	}
	if j1 != j2 {
		t.Fatal("report JSON not deterministic")
	}
	if !strings.Contains(t1, "replica-wait") && !strings.Contains(t1, "rep_wait") {
		t.Fatalf("table missing segment columns:\n%s", t1)
	}
	if !strings.Contains(j1, `"schema": "mproxy-forensics/v1"`) {
		t.Fatal("JSON missing schema")
	}
}
