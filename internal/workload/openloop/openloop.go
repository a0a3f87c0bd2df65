// Package openloop drives the KV service with seeded open-loop request
// generators and reports tail latency. Open-loop means arrivals are
// scheduled by the generator's clock, not by reply receipt: a request's
// latency is measured from its *scheduled* arrival time, so queueing that
// builds up when the service saturates is charged to the requests — the
// coordinated-omission-free methodology closed-loop harnesses get wrong.
// Each client draws its schedule, key popularity, and op mix from its own
// keyed splitmix64 streams (see internal/fault), so a run is a pure
// function of (seed, topology, load ladder). Sweeping the ladder from
// light to heavy load exposes the saturation knee: the last offered load
// whose p99 stays within 3x of the lightest point's.
package openloop

import (
	"fmt"

	"mproxy/internal/am"
	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/fault"
	"mproxy/internal/kv"
	"mproxy/internal/machine"
	"mproxy/internal/machine/topo"
	"mproxy/internal/sim"
	"mproxy/internal/sim/par"
	"mproxy/internal/trace"
	"mproxy/internal/trace/flight"
	"mproxy/internal/trace/metrics"
)

// Config parameterizes a serving sweep. Every load point builds a fresh
// cluster, so points are independent and any one can be rerun alone.
type Config struct {
	Arch    arch.Params
	Nodes   int
	Clients int // client processes per node (slot 0 is the KV server)
	Proxies int // proxy processors per node (message-proxy archs)
	// ProxySched names the proxy-scheduling policy binding client/server
	// command streams to proxies (proxy.SchedByName; "" = static).
	ProxySched string
	// Topo selects the interconnect: "" for the flat single-switch
	// model, else a topo.ByName kind ("fat-tree", "dragonfly").
	Topo            string
	CommandQueueCap int

	ValueBytes  int
	ScanCount   int
	Replication int
	Keys        int     // key-space size
	Theta       float64 // Zipfian skew (0 = uniform)
	Arrival     string  // "poisson" (default) or "onoff"

	Requests int // measured requests per load point, across all clients
	Warmup   int // unmeasured lead-in requests per load point
	// Flight, when set, runs a flight recorder per load point: every
	// measured request gets an end-to-end phase record, and the point's
	// harvest (slowest requests, windowed per-shard/per-tier series)
	// lands in Point.Flight. Recording is timing-free — request IDs ride
	// the high bits of the echoed flags word, whose value never affects
	// simulated cost — so results match a recorder-off run exactly.
	Flight *flight.Config
	// LoadUs is the sweep ladder: per-client mean inter-arrival time in
	// microseconds per point, ordered lightest load (largest) first.
	LoadUs []float64
	Seed   uint64

	// SimShards > 1 runs every load point on a sharded cluster: nodes
	// partition into contiguous equal blocks, each block simulated by its
	// own engine on its own OS thread, synchronized in lookahead windows
	// of the wire latency (see internal/sim/par). Results are
	// bit-deterministic across repeat runs. Requires Nodes divisible by
	// SimShards, a positive Arch.NetLatency, no Flight recorder, and no
	// Tracer. 0 or 1 = sequential.
	SimShards int
	// Tracer, when non-nil, receives every load point's full trace
	// stream, installed on each point's engine before the cluster is
	// built.
	Tracer trace.Tracer
}

// opMix is the fixed GET/PUT/SCAN request mix (YCSB-style read-heavy).
const (
	pGet = 0.70
	pPut = 0.25 // SCAN takes the remaining 5%
)

// Point is one load point's outcome.
type Point struct {
	LoadUs      float64              `json:"load_us"`
	OfferedRPS  float64              `json:"offered_rps"`
	AchievedRPS float64              `json:"achieved_rps"`
	Latency     metrics.HistSnapshot `json:"latency"`
	Gets        int64                `json:"gets"`
	Puts        int64                `json:"puts"`
	Scans       int64                `json:"scans"`
	Replicated  int64                `json:"replicated"`
	Issued      int64                `json:"issued"`
	MeanHops    float64              `json:"mean_hops,omitempty"`
	Tiers       []topo.TierUtil      `json:"tiers,omitempty"`
	// ProxyUtil[k] is proxy slot k's utilization averaged across nodes;
	// Mean/Max summarize every proxy agent in the cluster (message-proxy
	// design points only). Max is the answer to "is one proxy core the
	// bottleneck?" when placement is skewed.
	ProxyUtil     []float64 `json:"proxy_util,omitempty"`
	ProxyUtilMean float64   `json:"proxy_util_mean,omitempty"`
	ProxyUtilMax  float64   `json:"proxy_util_max,omitempty"`
	ElapsedUs     float64   `json:"elapsed_us"`
	// Par carries the parallel driver's per-shard execution statistics
	// (events, wall-clock busy and barrier-blocked time per shard) when
	// the point ran under Config.SimShards > 1; nil on sequential runs,
	// so sequential JSON output is unchanged.
	Par *par.Stats `json:"par,omitempty"`
	// Flight is the flight recorder's harvest, present when
	// Config.Flight was set.
	Flight *flight.PointData `json:"-"`
	// Events is the number of events the point scheduled, summed over
	// its engines (sim.Engine.Scheduled): deterministic, so the bench
	// harness gates it exactly.
	Events uint64 `json:"-"`
	// Queue is the point's timer-queue work, summed over its engines
	// (sim.Engine.QueueStats; the peak is the largest engine's).
	Queue sim.QueueStats `json:"-"`
}

// Result is a full sweep: every point plus the saturation summary.
type Result struct {
	Points []Point `json:"points"`
	// KneeLoadUs is the heaviest load whose p99 stayed within 3x of the
	// lightest point's p99; SaturationRPS is its achieved throughput.
	KneeLoadUs    float64 `json:"knee_load_us"`
	SaturationRPS float64 `json:"saturation_rps"`
	TotalIssued   int64   `json:"total_issued"`
}

// Run executes the sweep.
func Run(cfg Config) (Result, error) {
	if cfg.Nodes <= 0 || cfg.Clients <= 0 {
		return Result{}, fmt.Errorf("openloop: need nodes and clients, got %d x %d", cfg.Nodes, cfg.Clients)
	}
	if cfg.Requests <= 0 || len(cfg.LoadUs) == 0 {
		return Result{}, fmt.Errorf("openloop: need requests and a load ladder")
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 1 << 16
	}
	switch cfg.Arrival {
	case "", "poisson", "onoff":
	default:
		return Result{}, fmt.Errorf("openloop: unknown arrival process %q (want poisson or onoff)", cfg.Arrival)
	}
	if cfg.SimShards > 1 {
		if cfg.Nodes%cfg.SimShards != 0 || cfg.SimShards > cfg.Nodes {
			return Result{}, fmt.Errorf("openloop: %d nodes cannot split into %d equal shards", cfg.Nodes, cfg.SimShards)
		}
		if cfg.Arch.NetLatency <= 0 {
			return Result{}, fmt.Errorf("openloop: parallel execution needs a positive wire latency for lookahead, got %v", cfg.Arch.NetLatency)
		}
		if cfg.Flight != nil {
			return Result{}, fmt.Errorf("openloop: the flight recorder is sequential-only; unset Flight or SimShards")
		}
		if cfg.Tracer != nil {
			return Result{}, fmt.Errorf("openloop: a tracer is sequential-only; unset Tracer or SimShards")
		}
	}
	zp := zipfFor(cfg.Keys, cfg.Theta)
	var res Result
	for idx, loadUs := range cfg.LoadUs {
		if loadUs <= 0 {
			return Result{}, fmt.Errorf("openloop: load point %d is %v us", idx, loadUs)
		}
		pt, err := runPoint(&cfg, zp, idx, loadUs)
		if err != nil {
			return Result{}, err
		}
		res.Points = append(res.Points, pt)
		res.TotalIssued += pt.Issued
	}
	res.KneeLoadUs, res.SaturationRPS = knee(res.Points)
	return res, nil
}

// knee finds the saturation point: the last point (in ladder order) whose
// p99 is within 3x of the first point's. Beyond it the latency curve has
// left the flat region — the classic tail-latency definition of usable
// capacity.
func knee(pts []Point) (loadUs, rps float64) {
	if len(pts) == 0 {
		return 0, 0
	}
	limit := 3 * pts[0].Latency.P99Us
	best := pts[0]
	for _, p := range pts[1:] {
		if p.Latency.P99Us <= limit {
			best = p
		}
	}
	return best.LoadUs, best.AchievedRPS
}

// share splits total across n parties: party i gets the floor share plus
// one of the remainder if i is low enough.
func share(total, n, i int) int {
	s := total / n
	if i < total%n {
		s++
	}
	return s
}

// client is one generator process: an issuer task walking its arrival
// schedule and a receiver task serving replies on the same port.
type client struct {
	eng  *sim.Engine
	svc  *kv.Service
	port *am.Port
	arr  *arrivals
	keys zipfGen
	ops  fault.Stream
	// pGet and pPut are the op mix's GET and PUT shares (SCAN takes the
	// rest); runPoint gives every generator the package's fixed mix.
	pGet, pPut float64
	quota      int // total requests to issue
	warm       int // leading requests that are unmeasured
	sent       int

	// The issuer's resident continuation state: the task, the scheduled
	// arrival being waited for, and prebuilt continuations, so walking
	// the schedule allocates nothing per request.
	t     *sim.Task
	at    int64
	fireK func() // prebuilt c.fireAt
	stepK func() // prebuilt c.step

	// Flight-recorder context, nil/zero when recording is off.
	rec     *flight.Recorder
	net     *topo.Net
	rank    int
	ppn     int
	perHop  *[3]int64 // per-hop modeled request wire ns by op
	perHopR *[3]int64 // per-hop modeled reply wire ns by op
}

func (c *client) issue(t *sim.Task) {
	c.t = t
	c.fireK = c.fireAt
	c.stepK = c.step
	c.step()
}

func (c *client) step() {
	if c.sent >= c.quota {
		return // task settles; the receiver finishes on the last reply
	}
	c.at = c.arr.next()
	if now := int64(c.eng.Now()); c.at > now {
		c.t.Hold(sim.Time(c.at-now), c.fireK)
		return
	}
	// Behind schedule: the open-loop clock does not wait for the
	// service, so issue immediately but timestamp the scheduled arrival.
	c.fireAt()
}

func (c *client) fireAt() {
	t, at := c.t, c.at
	var flags int64
	measured := c.sent >= c.warm
	if measured {
		flags = 1
	}
	c.sent++
	key := c.keys.next()
	u := c.ops.Float64()
	var op kv.Op
	switch {
	case u < c.pGet:
		op = kv.OpGet
	case u < c.pGet+c.pPut:
		op = kv.OpPut
	default:
		op = kv.OpScan
	}
	if measured && c.rec != nil {
		flags = flight.FlagsWithID(flags, c.track(op, key, at))
	}
	k := c.stepK
	switch op {
	case kv.OpGet:
		c.svc.GetTask(c.port, t, key, flags, at, k)
	case kv.OpPut:
		c.svc.PutTask(c.port, t, key, flags, at, k)
	default:
		c.svc.ScanTask(c.port, t, key, flags, at, k)
	}
}

// track opens the flight record for a measured request: route length
// and modeled wire minimums from the topology, command-queue depth at
// enqueue from the endpoint's probe accessor.
func (c *client) track(op kv.Op, key uint64, at int64) uint64 {
	server := c.svc.Primary(key)
	shard := c.svc.ShardIndex(key)
	hops := 0
	if sn, dn := c.rank/c.ppn, server/c.ppn; sn != dn {
		if c.net != nil {
			hops = c.net.Hops(sn, dn)
		} else {
			hops = 1 // flat model: the single shared switch
		}
	}
	depth := 0
	if q := c.port.Endpoint().CommandQueue(); q != nil {
		depth = q.Len()
	}
	return c.rec.Issue(uint8(op), int32(c.rank), int32(server), int32(shard),
		int32(hops), int32(depth), key, at,
		int64(hops)*c.perHop[op], int64(hops)*c.perHopR[op])
}

func runPoint(cfg *Config, zp *zipfParams, idx int, loadUs float64) (Point, error) {
	shards := cfg.SimShards
	if shards < 1 {
		shards = 1
	}
	engs := make([]*sim.Engine, shards)
	for i := range engs {
		engs[i] = sim.NewEngine()
	}
	eng := engs[0]
	if cfg.Tracer != nil {
		eng.SetTracer(cfg.Tracer) // Run admits a tracer on one shard only
	}
	ppn := 1 + cfg.Clients
	mcfg := machine.Config{
		Nodes:          cfg.Nodes,
		ProcsPerNode:   ppn,
		ProxiesPerNode: cfg.Proxies,
		ProxySched:     cfg.ProxySched,
	}
	var cl *machine.Cluster
	var ps *par.Sim
	if shards > 1 {
		mcfg.SimShards = shards
		cl = machine.NewSharded(engs, mcfg, cfg.Arch)
		var err error
		if ps, err = par.New(engs, cfg.Arch.NetLatency); err != nil {
			return Point{}, fmt.Errorf("openloop: %w", err)
		}
	} else {
		cl = machine.New(eng, mcfg, cfg.Arch)
	}
	var net *topo.Net
	if cfg.Topo != "" {
		g, err := topo.ByName(cfg.Topo, cfg.Nodes)
		if err != nil {
			return Point{}, err
		}
		net = topo.NewNet(cl, g)
		cl.SetInterconnect(net)
	}
	f := comm.NewWith(cl, comm.Options{CommandQueueCap: cfg.CommandQueueCap})
	if ps != nil {
		if net != nil {
			net.Parallelize(ps)
		}
		f.Parallelize(ps)
	}
	l := am.New(f)
	servers := make([]int, cfg.Nodes)
	for n := range servers {
		servers[n] = n * ppn // slot 0 on every node
	}
	svc := kv.New(l, kv.Config{
		Servers:     servers,
		ValueBytes:  cfg.ValueBytes,
		ScanCount:   cfg.ScanCount,
		Replication: cfg.Replication,
	})

	var rec *flight.Recorder
	var perHop, perHopR [3]int64
	if cfg.Flight != nil {
		fc := *cfg.Flight
		fc.Shards = cfg.Nodes
		rec = flight.New(fc, func() int64 { return int64(eng.Now()) })
		svc.Flight = rec
		for op := kv.OpGet; op <= kv.OpScan; op++ {
			req, rep := svc.WireBytes(op)
			perHop[op] = int64(arch.XferTime(comm.HeaderSize+req, cfg.Arch.NetBW) + cfg.Arch.NetLatency)
			perHopR[op] = int64(arch.XferTime(comm.HeaderSize+rep, cfg.Arch.NetBW) + cfg.Arch.NetLatency)
		}
		if net != nil {
			links := net.TierLinks()
			var meta []flight.TierInfo
			var idxs []int
			for t := 0; t < topo.NumTiers; t++ {
				if links[t] == 0 {
					continue
				}
				meta = append(meta, flight.TierInfo{Name: topo.Tier(t).String(), Links: links[t]})
				idxs = append(idxs, t)
			}
			full := make([]int64, topo.NumTiers)
			rec.SetTiers(meta, func(buf []int64) []int64 {
				net.TierBusy(full)
				buf = buf[:0]
				for _, ti := range idxs {
					buf = append(buf, full[ti])
				}
				return buf
			})
		}
		if cfg.Proxies > 1 && cfg.Arch.Kind == arch.Proxy {
			pmeta := make([]flight.TierInfo, cfg.Proxies)
			for k := range pmeta {
				pmeta[k] = flight.TierInfo{Name: fmt.Sprintf("proxy%d", k), Links: cfg.Nodes}
			}
			rec.SetProxies(pmeta, func(buf []int64) []int64 {
				buf = buf[:0]
				for k := 0; k < cfg.Proxies; k++ {
					var busy int64
					for _, nd := range cl.Nodes {
						busy += int64(nd.Agents[k].BusyTime())
					}
					buf = append(buf, busy)
				}
				return buf
			})
		}
	}

	active := cfg.Nodes * cfg.Clients
	got := make([]int64, active)
	quota := make([]int64, active)
	// Reply accounting is per shard: a reply runs in its client's node
	// event context, so each accumulator is touched by exactly one worker
	// and the merge below is deterministic (sums, minima and maxima
	// commute; Hist.Merge is order-independent).
	type replyAcc struct {
		hist      metrics.Hist
		ops       [3]int64
		measured  int64
		minIssued int64
		lastReply int64
	}
	accs := make([]replyAcc, shards)
	for i := range accs {
		accs[i].minIssued = -1
	}
	shardOf := cl.NodeShard
	if shardOf == nil {
		shardOf = make([]int32, cfg.Nodes)
	}
	svc.OnReply = func(rank int, op kv.Op, flags, issued int64) {
		node := rank / ppn
		ci := node*cfg.Clients + rank%ppn - 1
		got[ci]++
		if flags&1 == 0 {
			return
		}
		a := &accs[shardOf[node]]
		now := int64(cl.EngOf(node).Now())
		a.hist.Add(now - issued)
		a.ops[op]++
		a.measured++
		if a.minIssued < 0 || issued < a.minIssued {
			a.minIssued = issued
		}
		if now > a.lastReply {
			a.lastReply = now
		}
	}

	for _, rank := range servers {
		port := l.Port(rank)
		cl.EngOf(rank/ppn).SpawnTaskDaemon(fmt.Sprintf("kv.server.%d", rank), func(t *sim.Task) {
			port.ServeWhileTask(t, func() bool { return false })
		})
	}

	onoff := cfg.Arrival == "onoff"
	var issuedTotal int64
	for n := 0; n < cfg.Nodes; n++ {
		for s := 0; s < cfg.Clients; s++ {
			rank := n*ppn + 1 + s
			ci := n*cfg.Clients + s
			q := share(cfg.Warmup+cfg.Requests, active, ci)
			if q == 0 {
				continue
			}
			quota[ci] = int64(q)
			issuedTotal += int64(q)
			c := &client{
				eng:   cl.EngOf(n),
				svc:   svc,
				port:  l.Port(rank),
				arr:   newArrivals(cfg.Seed, uint64(rank), uint64(idx), loadUs, onoff),
				keys:  zipfGen{s: fault.NewStream(cfg.Seed, fault.DomainKey, uint64(rank), uint64(idx)), p: zp},
				ops:   fault.NewStream(cfg.Seed, fault.DomainOpMix, uint64(rank), uint64(idx)),
				pGet:  pGet,
				pPut:  pPut,
				quota: q,
				warm:  share(cfg.Warmup, active, ci),
				rec:   rec,
				net:   net,
				rank:  rank,
				ppn:   ppn,
			}
			c.perHop, c.perHopR = &perHop, &perHopR
			ne := cl.EngOf(n)
			ne.SpawnTask(fmt.Sprintf("kv.client.%d", rank), c.issue)
			port, qci := c.port, ci
			ne.SpawnTask(fmt.Sprintf("kv.recv.%d", rank), func(t *sim.Task) {
				port.ServeWhileTask(t, func() bool { return got[qci] >= quota[qci] })
			})
		}
	}

	var pst *par.Stats
	if ps != nil {
		st, err := ps.Run()
		if err != nil {
			return Point{}, fmt.Errorf("openloop: load point %v us: %w", loadUs, err)
		}
		pst = st
	} else if err := eng.Run(); err != nil {
		return Point{}, fmt.Errorf("openloop: load point %v us: %w", loadUs, err)
	}

	agg := &accs[0]
	for i := 1; i < len(accs); i++ {
		a := &accs[i]
		agg.hist.Merge(&a.hist)
		for op := range agg.ops {
			agg.ops[op] += a.ops[op]
		}
		agg.measured += a.measured
		if a.minIssued >= 0 && (agg.minIssued < 0 || a.minIssued < agg.minIssued) {
			agg.minIssued = a.minIssued
		}
		if a.lastReply > agg.lastReply {
			agg.lastReply = a.lastReply
		}
	}

	pt := Point{
		LoadUs:     loadUs,
		OfferedRPS: float64(active) * 1e6 / loadUs,
		Latency:    agg.hist.Snapshot(),
		Gets:       agg.ops[kv.OpGet],
		Puts:       agg.ops[kv.OpPut],
		Scans:      agg.ops[kv.OpScan],
		Replicated: svc.Replicated(),
		Issued:     issuedTotal,
		ElapsedUs:  eng.Now().Micros(),
		Par:        pst,
	}
	for _, e := range engs {
		pt.Events += e.Scheduled()
		pt.Queue.Add(e.QueueStats())
	}
	if window := agg.lastReply - agg.minIssued; window > 0 && agg.minIssued >= 0 {
		pt.AchievedRPS = float64(agg.measured) * 1e9 / float64(window)
	}
	if net != nil {
		pt.MeanHops = net.MeanHops()
		pt.Tiers = net.TierUtilization(eng.Now())
	}
	if cfg.Arch.Kind == arch.Proxy {
		nprox := len(cl.Nodes[0].Agents)
		elapsed := eng.Now()
		pt.ProxyUtil = make([]float64, nprox)
		for k := 0; k < nprox; k++ {
			var sum float64
			for _, nd := range cl.Nodes {
				u := nd.Agents[k].Utilization(elapsed)
				sum += u
				if u > pt.ProxyUtilMax {
					pt.ProxyUtilMax = u
				}
			}
			pt.ProxyUtil[k] = sum / float64(len(cl.Nodes))
			pt.ProxyUtilMean += pt.ProxyUtil[k]
		}
		pt.ProxyUtilMean /= float64(nprox)
	}
	if rec != nil {
		pd := rec.Finish()
		if net != nil {
			// Resolve route tiers for the retained stragglers only: the
			// hot path stores hop counts, never per-request paths.
			for i := range pd.Slowest {
				r := &pd.Slowest[i]
				sn, dn := int(r.Client)/ppn, int(r.Server)/ppn
				if sn == dn {
					pd.Routes = append(pd.Routes, nil)
					continue
				}
				tiers := net.RouteTiers(sn, dn)
				names := make([]string, len(tiers))
				for j, tt := range tiers {
					names[j] = tt.String()
				}
				pd.Routes = append(pd.Routes, names)
			}
		}
		pt.Flight = &pd
	}
	return pt, nil
}
