// Package bench is the repository's benchmark-gated performance harness:
// a fixed suite of engine and end-to-end measurements emitted in a stable
// JSON schema ("mproxy-bench/v1") that CI diffs against the checked-in
// BENCH_*.json baseline. The suite is hand-rolled rather than built on
// testing.B so it can run inside the mproxy CLI with fixed, reproducible
// operation counts; allocation figures come from runtime.MemStats deltas
// around each measured region and are exact (per-op noise is amortized
// over millions of operations).
//
// The north-star metric is engine-events: the same-timestamp schedule/fire
// chain that every process handoff in the simulator reduces to. The
// end-to-end rows (pingpong-e2e, figure8-small) tie engine-level wins to
// experiment wall-clock, so an "optimization" that speeds the microloop
// while slowing real runs is caught in the same suite.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"mproxy/internal/apps/registry"
	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
	"mproxy/internal/trace/flight"
	"mproxy/internal/workload"
	"mproxy/internal/workload/openloop"
)

// Schema identifies the Suite JSON layout. Bump only with a migration in
// Compare; CI parses strictly and rejects unknown schemas.
const Schema = "mproxy-bench/v1"

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Ops         int64   `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// EventsPerOp is the simulated events the row schedules per op (the
	// sim.Engine.Scheduled delta over ops). Every row is deterministic, so
	// the figure is exact: measure rejects a row whose reps disagree, and
	// Compare holds it equal to the baseline's. Absent from baselines
	// recorded before the field existed.
	EventsPerOp float64 `json:"events_per_op,omitempty"`
	// The timer queue's work per op (sim.QueueStats: events it took,
	// settles, entries the settles moved) and its peak depth, on rows
	// whose engines the harness can read. Exact like EventsPerOp, so
	// measure rejects a row whose reps disagree; Compare does not gate
	// them.
	PushesPerOp  float64 `json:"pushes_per_op,omitempty"`
	SettlesPerOp float64 `json:"settles_per_op,omitempty"`
	MovesPerOp   float64 `json:"settle_moves_per_op,omitempty"`
	PeakPending  int     `json:"peak_pending,omitempty"`
}

// Suite is a full harness run.
type Suite struct {
	Schema string `json:"schema"`
	// Quick marks a CI-shard run. Every row runs the same shape in
	// quick and full runs, so all figures compare like for like.
	Quick   bool     `json:"quick"`
	Results []Result `json:"results"`
}

// Options configures a harness run.
type Options struct {
	// Quick labels the run as a CI shard; it does not change any row's
	// shape, so a quick run gates against a full-run baseline directly.
	Quick bool
}

// Run executes the fixed suite and returns its results in suite order.
func Run(opt Options) (Suite, error) {
	s := Suite{Schema: Schema, Quick: opt.Quick}
	type bm struct {
		name string
		ops  int64
		fn   benchFunc
	}
	// Every row runs its baseline's shape in every mode: the serving rows
	// cost tens of milliseconds at 4,000 requests, and the per-op figures
	// of a shorter run would carry a different share of set-up cost.
	// figure8-small always runs at small scale, which kernel-backed
	// Split-C heaps keep cheap enough for CI.
	suite := []bm{
		{"engine-events", 2_000_000, benchEngineEvents},
		{"engine-timer", 1_000_000, benchEngineTimer},
		{"engine-deep", 30_000, benchEngineDeep},
		{"engine-traced", 1_000_000, benchEngineTraced},
		{"pingpong-e2e", 2_000, benchPingPong},
		{"serving-smoke", 4_000, benchServing(nil, 1, "", 0)},
		{"serving-forensics", 4_000, benchServing(&flight.Config{}, 1, "", 0)},
		{"serving-proxysched", 4_000, benchServing(nil, 2, "steal", 0)},
		{"serving-smoke-par", 4_000, benchServing(nil, 1, "", 2)},
		{"engine-par-events", 8_000, benchServingPar()},
		{"figure8-small", 3, benchFigure8},
		{"build-1k", 10, benchBuild},
	}
	for _, b := range suite {
		res, err := measure(b.name, b.ops, b.fn)
		if err != nil {
			return Suite{}, fmt.Errorf("bench %s: %w", b.name, err)
		}
		s.Results = append(s.Results, res)
	}
	return s, Validate(s)
}

// benchFunc runs a benchmark of ops operations and returns how many
// simulated events it scheduled and, where it can read its engines, their
// timer-queue work.
type benchFunc func(ops int64) (counts, error)

// counts is what a benchmark run counted.
type counts struct {
	events uint64
	queue  sim.QueueStats
}

// engineCounts reads one engine's counts.
func engineCounts(e *sim.Engine) counts {
	return counts{events: e.Scheduled(), queue: e.QueueStats()}
}

// measureReps is how many times each benchmark runs; the fastest
// repetition is reported. Best-of-N is what keeps the CI shard's short
// measurement windows comparable against the checked-in baseline:
// scheduler hiccups and cold caches only ever slow a rep down, so the
// minimum converges on the benchmark's true cost. Five reps (up from
// three) keeps the end-to-end rows' minimum stable on loaded shared
// runners, where a single rep can be 20% off.
const measureReps = 5

// measure runs fn(ops) measureReps times between MemStats snapshots and
// reports the fastest repetition's per-op figures. Every repetition must
// count the same events and timer-queue work.
func measure(name string, ops int64, fn benchFunc) (Result, error) {
	best := Result{Name: name, Ops: ops}
	var first counts
	for rep := 0; rep < measureReps; rep++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		c, err := fn(ops)
		if err != nil {
			return Result{}, err
		}
		if rep > 0 && c != first {
			return Result{}, fmt.Errorf("counted %+v, %+v on the first rep: the row is not deterministic", c, first)
		}
		first = c
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		perOp := func(n uint64) float64 { return float64(n) / float64(ops) }
		r := Result{
			Name:         name,
			Ops:          ops,
			NsPerOp:      float64(wall.Nanoseconds()) / float64(ops),
			AllocsPerOp:  float64(m1.Mallocs-m0.Mallocs) / float64(ops),
			BytesPerOp:   float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
			EventsPerOp:  perOp(c.events),
			PushesPerOp:  perOp(c.queue.Pushes),
			SettlesPerOp: perOp(c.queue.Settles),
			MovesPerOp:   perOp(c.queue.SettleMoves),
			PeakPending:  c.queue.PeakPending,
		}
		if wall > 0 {
			r.OpsPerSec = float64(ops) / wall.Seconds()
		}
		if rep == 0 || r.NsPerOp < best.NsPerOp {
			best = r
		}
	}
	return best, nil
}

// benchEngineEvents is the engine event-throughput benchmark: a
// self-rescheduling zero-delay chain, one schedule+fire per op — the
// pattern every Wake/park handoff reduces to.
func benchEngineEvents(ops int64) (counts, error) {
	e := sim.NewEngine()
	var n int64
	var step func()
	step = func() {
		n++
		if n < ops {
			e.Schedule(0, step)
		}
	}
	e.Schedule(0, step)
	if err := e.Run(); err != nil {
		return counts{}, err
	}
	if n < ops {
		return counts{}, fmt.Errorf("ran %d of %d events", n, ops)
	}
	return engineCounts(e), nil
}

// benchEngineTimer exercises the timer queue: 64 outstanding future events,
// each pop followed by a push at a varying delay.
func benchEngineTimer(ops int64) (counts, error) {
	const outstanding = 64
	e := sim.NewEngine()
	var n int64
	var step func()
	step = func() {
		n++
		if n+outstanding <= ops {
			e.Schedule(sim.Time(1+n%7), step)
		}
	}
	for i := int64(0); i < outstanding && i < ops; i++ {
		e.Schedule(sim.Time(1+i), step)
	}
	err := e.Run()
	return engineCounts(e), err
}

// Shape of the engine-deep row, after the serve-1k workload: 1,024
// clients with 80 us mean inter-arrival times, and requests of 32 events
// that cross 25 wire hops (0.5 us latency plus ~0.57 us to serialize a
// 100-byte packet at 175 MB/s) and 7 service holds (1-13 us). About
// 1,000 requests are then in flight beside the 1,024 arrival timers, so
// ~2,000 events are pending, as in serve-1k.
const (
	deepClients = 1024
	deepMeanNs  = 80_000
	deepSteps   = 32
)

// benchEngineDeep exercises the timer queue at serving depth: one op is
// one request, its arrival plus its 32 steps, so events/op is exactly 33.
// The delays come from a fixed xorshift stream, so the row is
// deterministic.
func benchEngineDeep(ops int64) (counts, error) {
	if ops < deepClients {
		return counts{}, fmt.Errorf("engine-deep needs at least %d ops, got %d", deepClients, ops)
	}
	e := sim.NewEngine()
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	// A request walks its steps through one pooled frame and a prebuilt
	// continuation, so the row measures the queue, not the allocator.
	type request struct {
		step int
		k    func()
	}
	var free []*request
	var arrived int64
	start := func() {
		var r *request
		if n := len(free); n > 0 {
			r, free = free[n-1], free[:n-1]
		} else {
			r = &request{}
			r.k = func() {
				r.step++
				if r.step == deepSteps {
					free = append(free, r)
					return
				}
				d := sim.Time(1070 + next()%500 - 250) // a wire hop
				if r.step%4 == 0 {
					d = sim.Time(1000 + next()%12000) // a service hold
				}
				e.Schedule(d, r.k)
			}
		}
		r.step = 0
		e.Schedule(sim.Time(1070+next()%500-250), r.k)
	}
	for c := 0; c < deepClients; c++ {
		var arrive func()
		arrive = func() {
			arrived++
			start()
			if arrived+deepClients <= ops {
				u := float64(next()>>11) / (1 << 53)
				e.Schedule(sim.Time(-math.Log(1-u)*deepMeanNs)+1, arrive)
			}
		}
		e.Schedule(sim.Time(next()%deepMeanNs)+1, arrive)
	}
	err := e.Run()
	if err == nil && arrived != ops {
		err = fmt.Errorf("ran %d of %d requests", arrived, ops)
	}
	return engineCounts(e), err
}

// benchEngineTraced is benchEngineEvents with the golden-trace digest
// installed: schedule + fire + two batched trace events per op.
func benchEngineTraced(ops int64) (counts, error) {
	e := sim.NewEngine()
	e.SetTracer(trace.NewDigest())
	var n int64
	var step func()
	step = func() {
		n++
		if n < ops {
			e.Schedule(0, step)
		}
	}
	e.Schedule(0, step)
	err := e.Run()
	return engineCounts(e), err
}

// benchPingPong is the end-to-end latency path: the golden-trace pingpong
// scenario (64-byte PUTs bounced between two MP1 nodes through command
// queue, proxy scan, wire, and remote deposit), one round trip per op.
func benchPingPong(ops int64) (counts, error) {
	const n = 64
	a, ok := arch.ByName("MP1")
	if !ok {
		return counts{}, fmt.Errorf("unknown arch MP1")
	}
	reps := int(ops)
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, a)
	f := comm.New(cl)
	reg := f.Registry()
	b0 := reg.NewSegment(0, n)
	b1 := reg.NewSegment(1, n)
	b0.Grant(1)
	b1.Grant(0)
	ping := reg.NewFlag(1)
	pong := reg.NewFlag(0)
	pingF, _ := reg.Flag(ping)
	pongF, _ := reg.Flag(pong)
	eng.Spawn("pinger", func(p *sim.Proc) {
		ep := f.Endpoint(0)
		ep.Bind(p)
		for i := 0; i < reps; i++ {
			if err := ep.Put(b0.Addr(0), b1.Addr(0), n, memory.FlagRef{}, ping); err != nil {
				panic(err)
			}
			pongF.Wait(p, int64(i+1))
		}
	})
	eng.Spawn("ponger", func(p *sim.Proc) {
		ep := f.Endpoint(1)
		ep.Bind(p)
		for i := 0; i < reps; i++ {
			pingF.Wait(p, int64(i+1))
			if err := ep.Put(b1.Addr(0), b0.Addr(0), n, memory.FlagRef{}, pong); err != nil {
				panic(err)
			}
		}
	})
	err := eng.Run()
	return engineCounts(eng), err
}

// benchServing measures the open-loop serving stack end-to-end: a small
// MP1 fat-tree cluster under the Poisson generator, one measured request
// per op. The row stacks multi-switch routing, AM dispatch, KV service
// and replication on top of the engine, so a regression anywhere in the
// serving path moves it even when the microloops hold steady. A non-nil
// fcfg turns the flight recorder on (the serving-forensics row), pinning
// the recorder's bounded-overhead contract against the identical
// recorder-off configuration. proxies/sched select the proxy-scheduling
// design point: the serving-proxysched row runs two proxies per node
// under work stealing, so the steal path's cost (idle-proxy victim
// scans, cross-queue AgentMiss charges) is gated alongside the static
// baseline. shards > 1 runs the point on the conservative-parallel
// executor (the serving-smoke-par row), gating the sharded driver's
// overhead — mailbox posts, window barriers, pooling disabled — against
// the identical sequential configuration next to it in the suite.
func benchServing(fcfg *flight.Config, proxies int, sched string, shards int) benchFunc {
	return func(ops int64) (counts, error) {
		a, ok := arch.ByName("MP1")
		if !ok {
			return counts{}, fmt.Errorf("unknown arch MP1")
		}
		res, err := openloop.Run(openloop.Config{
			Arch: a, Nodes: 4, Clients: 2, Proxies: proxies, ProxySched: sched,
			Topo: "fat-tree", CommandQueueCap: 64,
			ValueBytes: 64, ScanCount: 16, Replication: 2,
			Keys: 1024, Theta: 0.99,
			Requests: int(ops), Warmup: int(ops / 10),
			LoadUs:    []float64{320},
			Seed:      7,
			Flight:    fcfg,
			SimShards: shards,
		})
		if err != nil {
			return counts{}, err
		}
		if got := int64(res.Points[0].Latency.Count); got != ops {
			return counts{}, fmt.Errorf("measured %d of %d requests", got, ops)
		}
		if fcfg != nil && res.Points[0].Flight == nil {
			return counts{}, fmt.Errorf("flight recorder produced no data")
		}
		return pointCounts(res.Points[0]), nil
	}
}

// pointCounts reads a serving point's counts.
func pointCounts(pt openloop.Point) counts {
	return counts{events: pt.Events, queue: pt.Queue}
}

// servingParConfig is the engine-par-events configuration: the 1k-node
// fat-tree serving point the parallel executor exists for, one load
// level, request count = ops.
func servingParConfig(a arch.Params, ops int64, shards int) openloop.Config {
	return openloop.Config{
		Arch: a, Nodes: 1024, Clients: 1,
		Topo: "fat-tree", CommandQueueCap: 64,
		ValueBytes: 64, ScanCount: 16, Replication: 2,
		Keys: 4096, Theta: 0.5,
		Requests: int(ops), Warmup: int(ops / 10),
		LoadUs:    []float64{160},
		Seed:      7,
		SimShards: shards,
	}
}

// benchServingPar measures the conservative-parallel executor at the
// scale it exists for: 1024 fat-tree nodes across 8 shards, one
// measured request per op. The first invocation also runs the identical
// sequential configuration once and reports the wall-clock ratio on
// stderr ("par-speedup: X.XXx") together with the parallel run's
// per-shard stats — ci.sh gates the ratio on hosts with enough cores,
// and the sequential twin stays out of the measured best-of-N (its rep
// can never be the fastest). The row's own per-op figures gate the
// sharded driver's scaling overhead against the baseline like any other
// row.
func benchServingPar() benchFunc {
	const shards = 8
	first := true
	return func(ops int64) (counts, error) {
		a, ok := arch.ByName("MP1")
		if !ok {
			return counts{}, fmt.Errorf("unknown arch MP1")
		}
		var seqWall time.Duration
		if first {
			first = false
			start := time.Now()
			if _, err := openloop.Run(servingParConfig(a, ops, 0)); err != nil {
				return counts{}, err
			}
			seqWall = time.Since(start)
		}
		start := time.Now()
		res, err := openloop.Run(servingParConfig(a, ops, shards))
		if err != nil {
			return counts{}, err
		}
		parWall := time.Since(start)
		if got := int64(res.Points[0].Latency.Count); got != ops {
			return counts{}, fmt.Errorf("measured %d of %d requests", got, ops)
		}
		st := res.Points[0].Par
		if st == nil || st.Shards != shards {
			return counts{}, fmt.Errorf("parallel run reported no %d-shard stats", shards)
		}
		if seqWall > 0 {
			fmt.Fprintf(os.Stderr, "par-speedup: %.2fx (seq %v, par %v, %d shards, GOMAXPROCS %d)\n",
				seqWall.Seconds()/parWall.Seconds(), seqWall.Round(time.Millisecond),
				parWall.Round(time.Millisecond), shards, runtime.GOMAXPROCS(0))
			fmt.Fprintf(os.Stderr, "par-stats: %s\n", st)
		}
		return pointCounts(res.Points[0]), nil
	}
}

// benchFigure8 measures application wall-clock: the Sample kernel on MP1
// at 1, 2 and 4 processors (one cell per op), at small scale.
func benchFigure8(ops int64) (counts, error) {
	spec, err := registry.ByName("Sample")
	if err != nil {
		return counts{}, err
	}
	a, ok := arch.ByName("MP1")
	if !ok {
		return counts{}, fmt.Errorf("unknown arch MP1")
	}
	var c counts
	for _, nodes := range []int{1, 2, 4} {
		res, err := workload.Run(spec.New(registry.Small), a, nodes, 1)
		if err != nil {
			return counts{}, err
		}
		c.events += res.Events
	}
	return c, nil
}

// Validate checks a suite for schema conformance: the exact schema tag,
// at least one result, unique names, and finite, sane figures.
func Validate(s Suite) error {
	if s.Schema != Schema {
		return fmt.Errorf("bench: schema %q, want %q", s.Schema, Schema)
	}
	if len(s.Results) == 0 {
		return fmt.Errorf("bench: empty result set")
	}
	seen := map[string]bool{}
	for _, r := range s.Results {
		if r.Name == "" {
			return fmt.Errorf("bench: result with empty name")
		}
		if seen[r.Name] {
			return fmt.Errorf("bench: duplicate result %q", r.Name)
		}
		seen[r.Name] = true
		if r.Ops <= 0 {
			return fmt.Errorf("bench %s: ops %d, want > 0", r.Name, r.Ops)
		}
		for _, v := range []struct {
			what string
			val  float64
		}{
			{"ns_per_op", r.NsPerOp}, {"ops_per_sec", r.OpsPerSec},
			{"allocs_per_op", r.AllocsPerOp}, {"bytes_per_op", r.BytesPerOp},
			{"events_per_op", r.EventsPerOp},
		} {
			if math.IsNaN(v.val) || math.IsInf(v.val, 0) || v.val < 0 {
				return fmt.Errorf("bench %s: %s = %v, want finite and >= 0", r.Name, v.what, v.val)
			}
		}
		if r.NsPerOp <= 0 || r.OpsPerSec <= 0 {
			return fmt.Errorf("bench %s: zero timing (ns_per_op=%v ops_per_sec=%v)", r.Name, r.NsPerOp, r.OpsPerSec)
		}
	}
	return nil
}

// ParseJSON strictly decodes and validates a suite; unknown fields are an
// error, so baseline files can't silently rot.
func ParseJSON(data []byte) (Suite, error) {
	var s Suite
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Suite{}, fmt.Errorf("bench: parse: %w", err)
	}
	if err := Validate(s); err != nil {
		return Suite{}, err
	}
	return s, nil
}

// JSON renders the suite with stable formatting (sorted keys come free
// from the struct field order; indented for reviewable diffs).
func (s Suite) JSON() []byte {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // plain data struct; cannot fail
	}
	return append(out, '\n')
}

// WriteComparison renders a per-benchmark delta table of current against
// baseline — ns/op, allocs/op, and the throughput ratio — so every CI log
// shows where the time went, not just whether the gate tripped.
func WriteComparison(w io.Writer, current, baseline Suite) {
	base := map[string]Result{}
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	fmt.Fprintf(w, "%-16s %14s %14s %8s %12s %12s %12s %12s\n",
		"benchmark", "ns/op", "base ns/op", "speedup", "allocs/op", "base allocs", "events/op", "base events")
	for _, c := range current.Results {
		b, ok := base[c.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s %14.2f %14s %8s %12.2f %12s %12.2f %12s\n",
				c.Name, c.NsPerOp, "-", "-", c.AllocsPerOp, "-", c.EventsPerOp, "-")
			continue
		}
		speedup := 0.0
		if c.NsPerOp > 0 {
			speedup = b.NsPerOp / c.NsPerOp
		}
		fmt.Fprintf(w, "%-16s %14.2f %14.2f %7.2fx %12.2f %12.2f %12.2f %12.2f\n",
			c.Name, c.NsPerOp, b.NsPerOp, speedup, c.AllocsPerOp, b.AllocsPerOp, c.EventsPerOp, b.EventsPerOp)
	}
	writeQueueTable(w, current)
}

// writeQueueTable renders the timer-queue counts of the rows that have
// them: per op, the events the queue took, its settles and the entries
// they moved, and the row's peak queue depth.
func writeQueueTable(w io.Writer, s Suite) {
	fmt.Fprintf(w, "%-16s %14s %14s %14s %12s\n", "timer queue", "pushes/op", "settles/op", "moves/op", "peak")
	for _, r := range s.Results {
		if r.PeakPending == 0 {
			continue
		}
		fmt.Fprintf(w, "%-16s %14.2f %14.2f %14.2f %12d\n", r.Name, r.PushesPerOp, r.SettlesPerOp, r.MovesPerOp, r.PeakPending)
	}
}

// allocTolerance is how far a row's allocs/op may grow over its baseline,
// on top of half an allocation of absolute slack. Allocation counts are
// nearly deterministic (their spread between runs is well under 0.5%),
// so they get their own tolerance rather than the wall-clock one.
const allocTolerance = 0.005

// Compare checks current against a baseline: every baseline benchmark must
// still be present, its throughput may not regress by more than tol
// (fractional, e.g. 0.10), its allocs/op may not grow by more than
// allocTolerance plus half an allocation of absolute slack (so a 0-alloc
// baseline stays pinned at 0 while jittery fractional rates don't flap),
// and its events/op, when the baseline records it, must be exactly equal.
func Compare(current, baseline Suite, tol float64) error {
	cur := map[string]Result{}
	for _, r := range current.Results {
		cur[r.Name] = r
	}
	for _, b := range baseline.Results {
		c, ok := cur[b.Name]
		if !ok {
			return fmt.Errorf("bench %s: present in baseline, missing from current run", b.Name)
		}
		if floor := b.OpsPerSec * (1 - tol); c.OpsPerSec < floor {
			return fmt.Errorf("bench %s: throughput regression: %.0f ops/sec < %.0f (baseline %.0f, tolerance %.0f%%)",
				b.Name, c.OpsPerSec, floor, b.OpsPerSec, tol*100)
		}
		if ceil := b.AllocsPerOp*(1+allocTolerance) + 0.5; c.AllocsPerOp > ceil {
			return fmt.Errorf("bench %s: allocation regression: %.2f allocs/op > %.2f (baseline %.2f)",
				b.Name, c.AllocsPerOp, ceil, b.AllocsPerOp)
		}
		// Simulated events are deterministic: any change at all means the
		// model schedules differently, which no tolerance should hide.
		if b.EventsPerOp != 0 && c.EventsPerOp != b.EventsPerOp {
			return fmt.Errorf("bench %s: events/op %v, baseline %v: the simulation schedules differently",
				b.Name, c.EventsPerOp, b.EventsPerOp)
		}
	}
	return nil
}
