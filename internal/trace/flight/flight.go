// Package flight is an always-on, bounded-overhead flight recorder for
// the serving stack: it stitches per-request end-to-end records — phase
// segments that tile the measured latency exactly, topology hop counts
// with modeled minimum wire time, the KV chain-replication breakdown
// (primary service vs follower-ack wait), and queue depth sampled at
// enqueue — into a fixed-size ring plus a deterministic top-K-slowest
// reservoir, so the p999 stragglers always survive however long the run.
// A windowed per-shard / per-tier time series (arrivals, completions,
// queue depth, link utilization) accumulates alongside; when a run
// outgrows the window budget the recorder doubles the window and folds,
// HDR-style, so memory stays bounded without losing coverage.
//
// The recorder is driven by direct nil-guarded calls from the KV service
// and the open-loop workload, not by the trace stream: request identity
// travels in the high bits of the AM flags word the protocol already
// echoes, and because an active message's simulated cost depends on its
// argument count, never on argument values, recorder-on runs replay the
// exact recorder-off event schedule.
package flight

import "sort"

// FlagsWithID embeds a record ID in the high bits of an AM flags word;
// bit 0 (the workload's measured bit) is untouched. Because an active
// message's simulated cost depends on its argument count, not values,
// carrying the ID is invisible to the event schedule.
func FlagsWithID(flags int64, id uint64) int64 { return flags | int64(id<<1) }

// FlagsID recovers the record ID from a flags word; 0 means untracked.
func FlagsID(flags int64) uint64 { return uint64(flags) >> 1 }

// Seg indexes one latency segment of a request record. The segments are
// chained marks on the engine clock, clamped non-negative, so they tile
// DoneNs-ScheduledNs exactly.
type Seg uint8

const (
	// SegSched is scheduled arrival to actual issue: the open-loop
	// client running behind its own arrival clock.
	SegSched Seg = iota
	// SegReq is issue to server handler start: command-queue wait,
	// request wire time, and server AM-queue wait.
	SegReq
	// SegService is the primary's handler: store access plus the reply
	// or replica-write submissions (including command-queue backpressure).
	SegService
	// SegRepWait is replica writes submitted to last follower ack —
	// zero for reads and unreplicated writes.
	SegRepWait
	// SegReply is reply submitted to reply delivered at the client.
	SegReply
	NumSegs = 5
)

// String names the segment for reports.
func (s Seg) String() string {
	switch s {
	case SegSched:
		return "client-backlog"
	case SegReq:
		return "req-flight"
	case SegService:
		return "primary-service"
	case SegRepWait:
		return "replica-wait"
	case SegReply:
		return "reply-flight"
	}
	return "?"
}

// Record is one request's complete flight record. It is a fixed-size
// value type: the ring, the reservoir and the in-flight slab hold them
// by value, so steady-state recording never allocates.
type Record struct {
	ID     uint64 `json:"id"`
	Op     uint8  `json:"op"`
	Client int32  `json:"client"`
	Server int32  `json:"server"`
	Shard  int32  `json:"shard"`
	Key    uint64 `json:"key"`
	// Hops is the link count of the request's route (0 = same node,
	// bypassing the network entirely).
	Hops int32 `json:"hops"`
	// CmdQDepth is the client's proxy command-queue depth at issue;
	// SrvQDepth the server's AM queue depth at handler start.
	CmdQDepth int32 `json:"cmdq_depth"`
	SrvQDepth int32 `json:"srvq_depth"`

	ScheduledNs int64 `json:"scheduled_ns"`
	IssueNs     int64 `json:"issue_ns"`
	DoneNs      int64 `json:"done_ns"`
	// WireReqNs/WireRepNs are the modeled minimum wire times for the
	// request and reply over the route (hops x (transfer + latency));
	// the rest of SegReq/SegReply is queueing and service.
	WireReqNs int64 `json:"wire_req_ns"`
	WireRepNs int64 `json:"wire_rep_ns"`

	Seg [NumSegs]int64 `json:"segments_ns"`

	mark int64 // last segment boundary on the engine clock
}

// Latency returns the end-to-end latency the segments tile.
func (r *Record) Latency() int64 { return r.DoneNs - r.ScheduledNs }

// TierInfo describes one interconnect tier for the windowed series.
type TierInfo struct {
	Name  string `json:"name"`
	Links int    `json:"links"`
}

// shardCell accumulates one shard's traffic inside one window.
type shardCell struct {
	arrivals int32
	dones    int32
	depthSum int64 // sum of CmdQDepth over arrivals
	depthMax int32
	latSum   int64 // sum of latency over completions
}

// Window is one closed time-series window: per-shard traffic cells and
// per-tier busy-time deltas.
type Window struct {
	StartNs int64
	EndNs   int64
	cells   []shardCell
	tier    []int64 // busy-ns delta per tier, aligned with the tier meta
	proxy   []int64 // busy-ns delta per proxy slot, aligned with the proxy meta
}

// ShardRow is one shard's exported view of a window.
type ShardRow struct {
	Shard    int32 `json:"shard"`
	Arrivals int32 `json:"arrivals"`
	Dones    int32 `json:"dones"`
	DepthSum int64 `json:"depth_sum"`
	DepthMax int32 `json:"depth_max"`
	LatSumNs int64 `json:"lat_sum_ns"`
}

// Config bounds the recorder. Zero values pick the defaults.
type Config struct {
	RingCap    int   // completed-record ring size (default 4096)
	TopK       int   // slowest records always retained (default 32)
	MaxOpen    int   // in-flight records tracked at once (default 65536)
	WindowNs   int64 // initial time-series window (default 10ms)
	MaxWindows int   // fold threshold: windows double past this (default 64)
	Shards     int   // shard count for the per-shard series
}

func (c *Config) fill() {
	if c.RingCap <= 0 {
		c.RingCap = 4096
	}
	if c.TopK <= 0 {
		c.TopK = 32
	}
	if c.MaxOpen <= 0 {
		c.MaxOpen = 65536
	}
	if c.WindowNs <= 0 {
		c.WindowNs = 10_000_000
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 64
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
}

// Recorder collects flight records for one engine run. All methods are
// nil-safe on the zero ID (untracked requests) and cheap enough for the
// per-request hot path: a map probe, a slab write, and window-cell
// arithmetic.
//
// In-flight storage follows the live high-water mark, not MaxOpen: the
// slab and its free list grow by append, so a pointer into the slab
// (&r.slab[si]) must never be held across an Issue, which may move it.
type Recorder struct {
	cfg Config
	now func() int64

	nextID uint64
	open   map[uint64]int32 // id -> slab index
	slab   []Record
	free   []int32

	ring     []Record
	ringN    uint64 // total completed records ever written
	topk     []Record
	tracked  uint64
	dropped  uint64 // issues not tracked: MaxOpen records in flight
	late     uint64 // events for ids no longer tracked
	clamped  uint64 // segment marks that ran backwards (never, by design)
	windowNs int64
	windows  []Window
	cur      *Window
	curIdx   int64 // current window's index on the absolute-time grid

	tiers    []TierInfo
	tierNow  func(buf []int64) []int64 // cumulative busy-ns per tier
	tierPrev []int64
	tierBuf  []int64

	// The per-proxy-slot series mirrors the tier series: cumulative
	// busy-ns per proxy slot (summed across nodes), diffed at window
	// closes. Installed only for multi-proxy runs.
	proxies   []TierInfo
	proxyNow  func(buf []int64) []int64
	proxyPrev []int64
	proxyBuf  []int64
}

// New builds a recorder over the engine clock now.
func New(cfg Config, now func() int64) *Recorder {
	cfg.fill()
	r := &Recorder{cfg: cfg, now: now, windowNs: cfg.WindowNs}
	r.open = make(map[uint64]int32)
	r.ring = make([]Record, 0, cfg.RingCap)
	r.topk = make([]Record, 0, cfg.TopK)
	return r
}

// SetTiers installs the per-tier busy probe for the windowed series:
// probe fills buf with cumulative busy nanoseconds per tier (aligned
// with meta) and returns it; the recorder diffs snapshots at window
// closes.
func (r *Recorder) SetTiers(meta []TierInfo, probe func(buf []int64) []int64) {
	r.tiers = meta
	r.tierNow = probe
	r.tierBuf = make([]int64, len(meta))
	r.tierPrev = append([]int64(nil), probe(make([]int64, len(meta)))...)
}

// SetProxies installs the per-proxy-slot busy probe for the windowed
// series, with the same snapshot-and-diff contract as SetTiers: probe
// fills buf with cumulative busy nanoseconds per proxy slot (aligned
// with meta; Links carries the node count the slot is summed over).
func (r *Recorder) SetProxies(meta []TierInfo, probe func(buf []int64) []int64) {
	r.proxies = meta
	r.proxyNow = probe
	r.proxyBuf = make([]int64, len(meta))
	r.proxyPrev = append([]int64(nil), probe(make([]int64, len(meta)))...)
}

// Issue opens a record for a measured request and returns its non-zero
// ID (0 means the recorder is saturated and the request flies
// untracked). scheduledNs is the open-loop arrival the latency is
// measured from; wire times are the route's modeled minimums.
func (r *Recorder) Issue(op uint8, client, server, shard, hops, cmdqDepth int32, key uint64, scheduledNs, wireReqNs, wireRepNs int64) uint64 {
	now := r.now()
	r.roll(now)
	if shard >= 0 && int(shard) < r.cfg.Shards {
		c := &r.cur.cells[shard]
		c.arrivals++
		c.depthSum += int64(cmdqDepth)
		if cmdqDepth > c.depthMax {
			c.depthMax = cmdqDepth
		}
	}
	var si int32
	switch {
	case len(r.free) > 0:
		si = r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
	case len(r.slab) < r.cfg.MaxOpen:
		si = int32(len(r.slab))
		r.slab = append(r.slab, Record{})
	default:
		r.dropped++
		return 0
	}
	r.nextID++
	id := r.nextID
	r.open[id] = si
	rec := &r.slab[si]
	*rec = Record{
		ID: id, Op: op, Client: client, Server: server, Shard: shard,
		Key: key, Hops: hops, CmdQDepth: cmdqDepth, SrvQDepth: -1,
		ScheduledNs: scheduledNs, IssueNs: now,
		WireReqNs: wireReqNs, WireRepNs: wireRepNs,
		mark: scheduledNs,
	}
	rec.Seg[SegSched] = r.seg(rec, now)
	r.tracked++
	return id
}

// seg closes a segment at now against the record's running mark.
func (r *Recorder) seg(rec *Record, now int64) int64 {
	d := now - rec.mark
	if d < 0 {
		d = 0
		r.clamped++
	}
	rec.mark += d
	return d
}

// lookup resolves an in-flight record, counting unknown ids as late.
func (r *Recorder) lookup(id uint64) *Record {
	if id == 0 {
		return nil
	}
	si, ok := r.open[id]
	if !ok {
		r.late++
		return nil
	}
	return &r.slab[si]
}

// ServerStart marks the request's arrival in its primary's handler,
// sampling the server's AM queue depth behind it.
func (r *Recorder) ServerStart(id uint64, srvQDepth int) {
	rec := r.lookup(id)
	if rec == nil {
		return
	}
	rec.SrvQDepth = int32(srvQDepth)
	rec.Seg[SegReq] = r.seg(rec, r.now())
}

// ServiceDone marks the primary's handler complete: the reply (or the
// last replica write) has been submitted.
func (r *Recorder) ServiceDone(id uint64) {
	rec := r.lookup(id)
	if rec == nil {
		return
	}
	rec.Seg[SegService] = r.seg(rec, r.now())
}

// RepAcked marks the last follower ack's arrival at the primary.
func (r *Recorder) RepAcked(id uint64) {
	rec := r.lookup(id)
	if rec == nil {
		return
	}
	rec.Seg[SegRepWait] = r.seg(rec, r.now())
}

// Done closes the record at reply delivery and retains it in the ring
// and, if slow enough, the top-K reservoir.
func (r *Recorder) Done(id uint64) {
	si, ok := r.open[id]
	if !ok {
		if id != 0 {
			r.late++
		}
		return
	}
	rec := &r.slab[si]
	now := r.now()
	r.roll(now)
	rec.Seg[SegReply] = r.seg(rec, now)
	rec.DoneNs = now
	if s := rec.Shard; s >= 0 && int(s) < r.cfg.Shards {
		c := &r.cur.cells[s]
		c.dones++
		c.latSum += rec.Latency()
	}
	r.retain(*rec)
	delete(r.open, id)
	r.free = append(r.free, si)
}

// retain writes the completed record to the ring and offers it to the
// top-K min-heap. Heap order is (latency, then younger ID) so ties keep
// the earliest requests — a pure function of the record stream.
func (r *Recorder) retain(rec Record) {
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, rec)
	} else {
		r.ring[r.ringN%uint64(cap(r.ring))] = rec
	}
	r.ringN++
	k := r.cfg.TopK
	if len(r.topk) < k {
		r.topk = append(r.topk, rec)
		r.siftUp(len(r.topk) - 1)
		return
	}
	if heapLess(r.topk[0], rec) {
		r.topk[0] = rec
		r.siftDown(0)
	}
}

// heapLess orders the reservoir min-heap: a is evicted before b when it
// is faster, or equally slow but issued later.
func heapLess(a, b Record) bool {
	al, bl := a.Latency(), b.Latency()
	if al != bl {
		return al < bl
	}
	return a.ID > b.ID
}

func (r *Recorder) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(r.topk[i], r.topk[p]) {
			return
		}
		r.topk[i], r.topk[p] = r.topk[p], r.topk[i]
		i = p
	}
}

func (r *Recorder) siftDown(i int) {
	n := len(r.topk)
	for {
		l, s := 2*i+1, i
		if l < n && heapLess(r.topk[l], r.topk[s]) {
			s = l
		}
		if rt := l + 1; rt < n && heapLess(r.topk[rt], r.topk[s]) {
			s = rt
		}
		if s == i {
			return
		}
		r.topk[i], r.topk[s] = r.topk[s], r.topk[i]
		i = s
	}
}

// roll advances the window clock to now, closing any windows the clock
// has crossed and folding when the budget is exceeded.
func (r *Recorder) roll(now int64) {
	idx := now / r.windowNs
	if r.cur == nil {
		r.openWindow(idx)
		return
	}
	for idx > r.curIdx {
		r.closeWindow()
		if len(r.windows) >= r.cfg.MaxWindows {
			r.fold()
			idx = now / r.windowNs
		}
		r.openWindow(r.curIdx + 1)
	}
}

func (r *Recorder) openWindow(idx int64) {
	r.windows = append(r.windows, Window{
		StartNs: idx * r.windowNs,
		EndNs:   (idx + 1) * r.windowNs,
		cells:   make([]shardCell, r.cfg.Shards),
		tier:    make([]int64, len(r.tiers)),
		proxy:   make([]int64, len(r.proxies)),
	})
	r.cur = &r.windows[len(r.windows)-1]
	r.curIdx = idx
}

// closeWindow snapshots the tier busy counters into the current window.
func (r *Recorder) closeWindow() {
	if r.tierNow != nil {
		busy := r.tierNow(r.tierBuf)
		for i := range busy {
			r.cur.tier[i] = busy[i] - r.tierPrev[i]
			r.tierPrev[i] = busy[i]
		}
	}
	if r.proxyNow != nil {
		busy := r.proxyNow(r.proxyBuf)
		for i := range busy {
			r.cur.proxy[i] = busy[i] - r.proxyPrev[i]
			r.proxyPrev[i] = busy[i]
		}
	}
}

// fold doubles the window length and merges windows landing on the same
// doubled grid slot, keeping the series bounded however long the run
// (HDR-style). Grid alignment, not slice position, decides the pairing.
func (r *Recorder) fold() {
	r.windowNs *= 2
	out := r.windows[:0]
	for i := range r.windows {
		w := r.windows[i]
		start := (w.StartNs / r.windowNs) * r.windowNs
		if n := len(out); n > 0 && out[n-1].StartNs == start {
			p := &out[n-1]
			for s := range w.cells {
				c, oc := &p.cells[s], &w.cells[s]
				c.arrivals += oc.arrivals
				c.dones += oc.dones
				c.depthSum += oc.depthSum
				c.latSum += oc.latSum
				if oc.depthMax > c.depthMax {
					c.depthMax = oc.depthMax
				}
			}
			for t := range w.tier {
				p.tier[t] += w.tier[t]
			}
			for t := range w.proxy {
				p.proxy[t] += w.proxy[t]
			}
			continue
		}
		w.StartNs, w.EndNs = start, start+r.windowNs
		out = append(out, w)
	}
	r.windows = out
	r.cur = &r.windows[len(r.windows)-1]
	r.curIdx = r.cur.StartNs / r.windowNs
}

// PointData is the harvested outcome of one load point: the reservoir,
// the windowed series, and the recorder's quality counters.
type PointData struct {
	Tracked uint64 `json:"tracked"`
	Dropped uint64 `json:"dropped"`
	Late    uint64 `json:"late"`
	Clamped uint64 `json:"clamped"`
	// Slowest is the reservoir sorted slowest-first (ties by earlier
	// issue); Routes, when filled by the caller, aligns with it and
	// names the tier of each link on the record's route.
	Slowest  []Record   `json:"slowest"`
	Routes   [][]string `json:"routes,omitempty"`
	WindowNs int64      `json:"window_ns"`
	Windows  []Window   `json:"-"`
	Tiers    []TierInfo `json:"tiers,omitempty"`
	// Proxies mirrors Tiers for the per-proxy-slot busy series; Links is
	// the number of nodes each slot's busy time is summed over.
	Proxies []TierInfo `json:"proxies,omitempty"`
}

// Finish closes the current window and harvests the point. The recorder
// stays usable for inspection but not for further recording.
func (r *Recorder) Finish() PointData {
	if r.cur != nil {
		r.closeWindow()
	}
	slow := append([]Record(nil), r.topk...)
	sort.Slice(slow, func(i, j int) bool { return heapLess(slow[j], slow[i]) })
	return PointData{
		Tracked: r.tracked, Dropped: r.dropped, Late: r.late, Clamped: r.clamped,
		Slowest: slow, WindowNs: r.windowNs, Windows: r.windows, Tiers: r.tiers,
		Proxies: r.proxies,
	}
}

// Ring returns the retained recent records, oldest first, plus the total
// ever completed.
func (r *Recorder) Ring() ([]Record, uint64) {
	if r.ringN <= uint64(cap(r.ring)) {
		return r.ring, r.ringN
	}
	out := make([]Record, 0, cap(r.ring))
	start := r.ringN % uint64(cap(r.ring))
	out = append(out, r.ring[start:]...)
	out = append(out, r.ring[:start]...)
	return out, r.ringN
}

// ShardRows exports a window's active shard cells.
func (w *Window) ShardRows() []ShardRow {
	var rows []ShardRow
	for s, c := range w.cells {
		if c.arrivals == 0 && c.dones == 0 {
			continue
		}
		rows = append(rows, ShardRow{
			Shard: int32(s), Arrivals: c.arrivals, Dones: c.dones,
			DepthSum: c.depthSum, DepthMax: c.depthMax, LatSumNs: c.latSum,
		})
	}
	return rows
}

// TierBusy returns the window's per-tier busy-ns deltas.
func (w *Window) TierBusy() []int64 { return w.tier }

// ProxyBusy returns the window's per-proxy-slot busy-ns deltas.
func (w *Window) ProxyBusy() []int64 { return w.proxy }
