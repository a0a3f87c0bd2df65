// Package par runs a partitioned simulation across cores using classic
// conservative parallel discrete-event execution. The cluster's nodes are
// split into P shards, each owning a private sim.Engine; all cross-shard
// interactions in the model are link flights with wire latency at least L
// (the lookahead), so every shard may execute the window [T, T+L)
// independently: no event another shard schedules at or after T can land
// before T+L. Windows are separated by a barrier, and cross-shard
// deliveries travel through per-(src,dst) single-producer single-consumer
// mailboxes that are drained between windows in a canonical order — by
// (timestamp, source shard, mailbox push order) — so repeat runs are
// bit-identical no matter how the worker threads interleave.
package par

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"mproxy/internal/sim"
)

// crossing is one cross-shard event: a delivery closure to run on the
// destination engine at absolute time at.
type crossing struct {
	at sim.Time
	fn func()
}

// Sim drives P shard engines through barrier-synchronized lookahead
// windows. Build the model so every actor's events run on its owner
// shard's engine and every cross-shard edge posts through Post with a
// delivery time at least L after the posting instant.
type Sim struct {
	engs []*sim.Engine
	l    sim.Time
	mb   [][][]crossing // [src][dst], appended by src's worker during a window
	xbuf []crossing     // coordinator scratch for the per-destination merge

	stats Stats
}

// Stats reports per-shard execution and synchronization costs so load
// imbalance across the partition is visible rather than guessed.
type Stats struct {
	Shards    int
	Windows   int64   // barrier rounds executed
	Crossings int64   // cross-shard events exchanged
	Events    []int64 // events scheduled per shard engine over the run
	BusyNs    []int64 // wall-clock per shard spent executing windows
	BlockedNs []int64 // wall-clock per shard spent waiting at the barrier
}

// MaxSkewNs returns the spread between the busiest and least-busy shard's
// wall-clock execution time — the cost of partition imbalance.
func (st *Stats) MaxSkewNs() int64 {
	if len(st.BusyNs) == 0 {
		return 0
	}
	min, max := st.BusyNs[0], st.BusyNs[0]
	for _, b := range st.BusyNs[1:] {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	return max - min
}

// String renders the one-line summary the bench harness and forensics
// output print: events per shard, window count, per-shard busy and
// blocked-at-barrier wall-clock ranges, and barrier skew.
func (st *Stats) String() string {
	span := func(xs []int64) string {
		var lo, hi int64
		for i, x := range xs {
			if i == 0 || x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return fmt.Sprintf("%v..%v",
			time.Duration(lo).Round(time.Microsecond),
			time.Duration(hi).Round(time.Microsecond))
	}
	var minE, maxE int64
	for i, e := range st.Events {
		if i == 0 || e < minE {
			minE = e
		}
		if e > maxE {
			maxE = e
		}
	}
	return fmt.Sprintf("shards=%d windows=%d crossings=%d events/shard=[%d..%d] busy/shard=[%s] blocked/shard=[%s] max-skew=%s",
		st.Shards, st.Windows, st.Crossings, minE, maxE,
		span(st.BusyNs), span(st.BlockedNs),
		time.Duration(st.MaxSkewNs()).Round(time.Microsecond))
}

// New creates a windowing driver over the given shard engines with
// lookahead l: the minimum simulated latency of any cross-shard edge.
func New(engs []*sim.Engine, l sim.Time) (*Sim, error) {
	if len(engs) == 0 {
		return nil, fmt.Errorf("par: no shard engines")
	}
	if l <= 0 {
		return nil, fmt.Errorf("par: lookahead must be positive, got %v", l)
	}
	p := len(engs)
	mb := make([][][]crossing, p)
	for i := range mb {
		mb[i] = make([][]crossing, p)
	}
	return &Sim{
		engs: engs,
		l:    l,
		mb:   mb,
		stats: Stats{
			Shards:    p,
			Events:    make([]int64, p),
			BusyNs:    make([]int64, p),
			BlockedNs: make([]int64, p),
		},
	}, nil
}

// Post delivers fn to dst's engine at absolute time at. It must be called
// from shard src's worker while a window executes (model layers install
// it as the cross-shard half of their link delivery path). The (src,dst)
// mailbox has exactly one producer — src's worker — and is drained by the
// coordinator after the barrier, so no lock is needed.
func (s *Sim) Post(src, dst int, at sim.Time, fn func()) {
	s.mb[src][dst] = append(s.mb[src][dst], crossing{at: at, fn: fn})
}

// wres is one shard's window result.
type wres struct {
	err error
	pan any
}

// spinYield is how many barrier polls a spinning waiter makes between
// yields of its thread.
const spinYield = 1024

// barrier starts and collects windows. The coordinator goroutine runs
// shard 0 itself; shards 1..P-1 run on workers. When every shard can have
// a core (P <= GOMAXPROCS) workers spin on an atomic window epoch and the
// coordinator spins on a completion count, so a window costs no
// goroutine handoff; otherwise they block on channels, since spinning on
// an oversubscribed host only steals time from the shards doing work.
type barrier struct {
	spin bool

	// Written by the coordinator before it opens a window; the epoch bump
	// (or channel send) publishes them to the workers.
	horizon sim.Time
	stop    bool

	epoch atomic.Uint64 // spin mode: bumped to open a window (or stop)
	done  atomic.Int32  // spin mode: workers finished in the open window

	work []chan struct{} // blocking mode: one start signal per worker
	fin  chan struct{}   // blocking mode: one completion per worker

	res []wres // per-shard window result, written before completion
}

// open publishes a window (or, with stop set, the shutdown) to every
// worker.
func (b *barrier) open() {
	if b.spin {
		b.done.Store(0)
		b.epoch.Add(1)
		return
	}
	for _, w := range b.work[1:] {
		w <- struct{}{}
	}
}

// await blocks worker i until the window after epoch seen opens, and
// returns that window's epoch.
func (b *barrier) await(i int, seen uint64) uint64 {
	if !b.spin {
		<-b.work[i]
		return seen + 1
	}
	for n := 1; ; n++ {
		if e := b.epoch.Load(); e != seen {
			return e
		}
		if n%spinYield == 0 {
			runtime.Gosched()
		}
	}
}

// finish reports worker i's window as complete.
func (b *barrier) finish() {
	if b.spin {
		b.done.Add(1)
		return
	}
	b.fin <- struct{}{}
}

// collect waits until every worker has finished the open window.
func (b *barrier) collect() {
	workers := int32(len(b.res) - 1)
	if !b.spin {
		for i := int32(0); i < workers; i++ {
			<-b.fin
		}
		return
	}
	for n := 1; b.done.Load() != workers; n++ {
		if n%spinYield == 0 {
			runtime.Gosched()
		}
	}
}

// Run executes windows until every engine's event queue is empty and all
// mailboxes have drained, then aligns every shard clock to the global
// last-event time (matching what a sequential run's final Now would be).
// Engines are left running — the caller collects results and then shuts
// each engine down.
func (s *Sim) Run() (*Stats, error) {
	p := len(s.engs)
	b := &barrier{spin: p <= runtime.GOMAXPROCS(0), res: make([]wres, p)}
	if !b.spin {
		b.work = make([]chan struct{}, p)
		for i := 1; i < p; i++ {
			b.work[i] = make(chan struct{})
		}
		b.fin = make(chan struct{}, p)
	}
	for i := 1; i < p; i++ {
		go s.worker(i, b)
	}
	stop := func() {
		b.stop = true
		b.open()
	}

	idle := time.Now() // shard 0's barrier wait starts after its window
	for {
		// The next window starts at the global minimum pending timestamp;
		// jumping there (rather than marching in fixed L steps) skips idle
		// gaps entirely.
		var t sim.Time
		have := false
		for _, e := range s.engs {
			if at, ok := e.NextAt(); ok && (!have || at < t) {
				t, have = at, true
			}
		}
		if !have {
			break
		}
		b.horizon = t + s.l - 1 // RunEvents is inclusive of its limit
		b.open()
		t0 := time.Now()
		if s.stats.Windows > 0 {
			s.stats.BlockedNs[0] += t0.Sub(idle).Nanoseconds()
		}
		b.res[0] = s.runShard(0, b.horizon)
		idle = time.Now()
		s.stats.BusyNs[0] += idle.Sub(t0).Nanoseconds()
		b.collect()
		var err error
		var pan any
		for _, r := range b.res {
			if r.err != nil && err == nil {
				err = r.err
			}
			if r.pan != nil && pan == nil {
				pan = r.pan
			}
		}
		if pan != nil {
			stop()
			panic(pan)
		}
		if err != nil {
			stop()
			return &s.stats, err
		}
		s.exchange()
		s.stats.Windows++
	}
	stop()

	// Align every shard clock to the global last-event time so post-run
	// observations (utilizations, elapsed time) see the same Now a
	// sequential run would end at.
	var tFinal sim.Time
	for _, e := range s.engs {
		if e.Now() > tFinal {
			tFinal = e.Now()
		}
	}
	for i, e := range s.engs {
		if err := e.RunUntil(tFinal); err != nil {
			return &s.stats, err
		}
		s.stats.Events[i] = int64(e.Scheduled())
	}
	return &s.stats, nil
}

// worker executes shard i's windows: wait for a window to open, run
// events up to its horizon, report back, repeat. Busy time covers event
// execution; blocked time covers the barrier wait (including the
// coordinator's exchange phase).
func (s *Sim) worker(i int, b *barrier) {
	var seen uint64
	first := true
	for {
		t0 := time.Now()
		seen = b.await(i, seen)
		if b.stop {
			return
		}
		t1 := time.Now()
		if !first {
			s.stats.BlockedNs[i] += t1.Sub(t0).Nanoseconds()
		}
		first = false
		b.res[i] = s.runShard(i, b.horizon)
		s.stats.BusyNs[i] += time.Since(t1).Nanoseconds()
		b.finish()
	}
}

// runShard runs one window on shard i's engine, converting a panic into a
// result the coordinator re-raises (so a model bug surfaces exactly like
// it would sequentially, instead of killing the process from a bare
// goroutine).
func (s *Sim) runShard(i int, h sim.Time) (r wres) {
	defer func() {
		if p := recover(); p != nil {
			r.pan = p
		}
	}()
	r.err = s.engs[i].RunEvents(h)
	return r
}

// exchange drains every mailbox into its destination engine in canonical
// order. For one destination, items from all sources are concatenated in
// ascending source-shard order (each mailbox already in push order) and
// stable-sorted by timestamp: the resulting schedule order is
// (at, srcShard, srcSeq), independent of thread interleaving, which is
// what makes repeat parallel runs bit-identical. Runs on the coordinator
// between barriers, so no engine is concurrently touched.
func (s *Sim) exchange() {
	p := len(s.engs)
	for d := 0; d < p; d++ {
		buf := s.xbuf[:0]
		for src := 0; src < p; src++ {
			buf = append(buf, s.mb[src][d]...)
			s.mb[src][d] = s.mb[src][d][:0]
		}
		if len(buf) == 0 {
			continue
		}
		sort.SliceStable(buf, func(i, j int) bool { return buf[i].at < buf[j].at })
		eng := s.engs[d]
		now := eng.Now()
		for i, c := range buf {
			if c.at < now {
				panic(fmt.Sprintf("par: lookahead violation: crossing at %v behind shard %d clock %v", c.at, d, now))
			}
			eng.Schedule(c.at-now, c.fn)
			buf[i] = crossing{} // fired closures must be collectable
		}
		s.stats.Crossings += int64(len(buf))
		s.xbuf = buf[:0]
	}
}
