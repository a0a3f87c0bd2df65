// Package micro implements the paper's micro-benchmarks (Section 5.2):
// PUT/GET latency, PUT+sync compute-processor overhead, active-message
// round-trip latency, peak bandwidth (Table 4), and the ping-pong latency
// and bandwidth sweeps across message sizes (Figure 7).
package micro

import (
	"mproxy/internal/am"
	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// Table4Row holds one design point's micro-benchmark results in the
// paper's units (microseconds; MB/s for bandwidth).
type Table4Row struct {
	Arch       string
	PutLatency float64 // submit -> local sync flag set (round trip)
	GetLatency float64 // submit -> local sync flag set
	PutSyncOvh float64 // compute-processor overhead: submit + detect
	AMLatency  float64 // am_request -> am_reply received
	PeakBW     float64 // streamed large PUTs, MB/s
}

// Options carries per-run simulation parameters for the benchmark rigs:
// fabric tuning (command-queue capacity, reliable transport), an optional
// fault plane and an optional tracer installed on every rig's engine. The
// zero value is the quiescent, fault-free configuration the paper's
// Table 4 and Figure 7 assume.
type Options struct {
	Fabric comm.Options
	Fault  machine.FaultPlane
	Tracer trace.Tracer
}

// newEngine returns a rig engine with opt's tracer installed.
func (opt Options) newEngine() *sim.Engine {
	eng := sim.NewEngine()
	if opt.Tracer != nil {
		eng.SetTracer(opt.Tracer)
	}
	return eng
}

// rig is a two-node test cluster.
type rig struct {
	eng *sim.Engine
	f   *comm.Fabric
}

func newRig(a arch.Params, opt Options) *rig {
	eng := opt.newEngine()
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, a)
	if opt.Fault != nil {
		cl.SetFaultPlane(opt.Fault)
	}
	return &rig{eng: eng, f: comm.NewWith(cl, opt.Fabric)}
}

func (r *rig) run(b0, b1 func(ep *comm.Endpoint)) {
	for rank, body := range []func(ep *comm.Endpoint){b0, b1} {
		if body == nil {
			continue
		}
		rank, body := rank, body
		r.eng.Spawn("rank", func(p *sim.Proc) {
			ep := r.f.Endpoint(rank)
			ep.Bind(p)
			body(ep)
		})
	}
	if err := r.eng.Run(); err != nil {
		panic("micro: " + err.Error())
	}
}

const reps = 32

// PutLatency measures the mean time from submitting a one-word PUT to the
// local synchronization flag being set (which requires the destination's
// deposit confirmation).
func PutLatency(a arch.Params, n int) float64 { return PutLatencyOpts(a, n, Options{}) }

// PutLatencyOpts is PutLatency with explicit simulation options.
func PutLatencyOpts(a arch.Params, n int, opt Options) float64 {
	r := newRig(a, opt)
	reg := r.f.Registry()
	src := reg.NewSegment(0, n)
	dst := reg.NewSegment(1, n)
	dst.Grant(0)
	fsync := reg.NewFlag(0)
	fl, _ := reg.Flag(fsync)
	var total sim.Time
	r.run(func(ep *comm.Endpoint) {
		for i := 0; i < reps; i++ {
			start := ep.Proc().Now()
			if err := ep.Put(src.Addr(0), dst.Addr(0), n, fsync, memory.FlagRef{}); err != nil {
				panic(err)
			}
			fl.Wait(ep.Proc(), int64(i+1)) // raw wait: latency excludes detection
			total += ep.Proc().Now() - start
		}
	}, nil)
	return total.Micros() / reps
}

// GetLatency measures the mean time from submitting a one-word GET to the
// local synchronization flag being set.
func GetLatency(a arch.Params, n int) float64 { return GetLatencyOpts(a, n, Options{}) }

// GetLatencyOpts is GetLatency with explicit simulation options.
func GetLatencyOpts(a arch.Params, n int, opt Options) float64 {
	r := newRig(a, opt)
	reg := r.f.Registry()
	local := reg.NewSegment(0, n)
	remote := reg.NewSegment(1, n)
	remote.Grant(0)
	fsync := reg.NewFlag(0)
	fl, _ := reg.Flag(fsync)
	var total sim.Time
	r.run(func(ep *comm.Endpoint) {
		for i := 0; i < reps; i++ {
			start := ep.Proc().Now()
			if err := ep.Get(local.Addr(0), remote.Addr(0), n, fsync, memory.FlagRef{}); err != nil {
				panic(err)
			}
			fl.Wait(ep.Proc(), int64(i+1))
			total += ep.Proc().Now() - start
		}
	}, nil)
	return total.Micros() / reps
}

// PutSyncOverhead measures the compute-processor cycles consumed per PUT:
// submitting the command plus detecting its completion (the rest of the
// latency is overlappable with computation — except under SW, where it is
// not, which is the paper's central point about offload).
func PutSyncOverhead(a arch.Params) float64 { return PutSyncOverheadOpts(a, Options{}) }

// PutSyncOverheadOpts is PutSyncOverhead with explicit simulation options.
func PutSyncOverheadOpts(a arch.Params, opt Options) float64 {
	r := newRig(a, opt)
	reg := r.f.Registry()
	src := reg.NewSegment(0, 8)
	dst := reg.NewSegment(1, 8)
	dst.Grant(0)
	fsync := reg.NewFlag(0)
	var busy sim.Time
	r.run(func(ep *comm.Endpoint) {
		cpu := ep.CPU()
		start := cpu.BusyTime()
		for i := 0; i < reps; i++ {
			if err := ep.Put(src.Addr(0), dst.Addr(0), 8, fsync, memory.FlagRef{}); err != nil {
				panic(err)
			}
			ep.WaitFlag(fsync, int64(i+1))
		}
		busy = cpu.BusyTime() - start
	}, nil)
	return busy.Micros() / reps
}

// AMLatency measures the round trip of an am_request answered by an
// am_reply, including handler invocation on both ends.
func AMLatency(a arch.Params) float64 { return AMLatencyOpts(a, Options{}) }

// AMLatencyOpts is AMLatency with explicit simulation options.
func AMLatencyOpts(a arch.Params, opt Options) float64 {
	r := newRig(a, opt)
	l := am.New(r.f)
	replies := 0
	var hEcho, hDone int
	hDone = l.Register(func(p *am.Port, src int, args []int64, _ []byte) { replies++ })
	hEcho = l.Register(func(p *am.Port, src int, args []int64, _ []byte) {
		p.Reply(src, hDone, args[0])
	})
	var total sim.Time
	served := 0
	r.run(func(ep *comm.Endpoint) {
		p := l.Port(0)
		for i := 0; i < reps; i++ {
			start := ep.Proc().Now()
			p.Request(1, hEcho, int64(i))
			p.WaitUntil(func() bool { return replies > i })
			total += ep.Proc().Now() - start
		}
	}, func(ep *comm.Endpoint) {
		p := l.Port(1)
		for served < reps {
			p.ServeOne()
			served++
		}
	})
	return total.Micros() / reps
}

// PeakBandwidth streams large PUTs one way and reports delivered MB/s,
// measured from first submission to the last byte's deposit confirmation.
func PeakBandwidth(a arch.Params) float64 { return PeakBandwidthOpts(a, Options{}) }

// PeakBandwidthOpts is PeakBandwidth with explicit simulation options.
func PeakBandwidthOpts(a arch.Params, opt Options) float64 {
	const msg = 256 * 1024
	const count = 4
	r := newRig(a, opt)
	reg := r.f.Registry()
	src := reg.NewSegment(0, msg)
	dst := reg.NewSegment(1, msg)
	dst.Grant(0)
	fsync := reg.NewFlag(0)
	var elapsed sim.Time
	r.run(func(ep *comm.Endpoint) {
		start := ep.Proc().Now()
		for i := 0; i < count; i++ {
			ref := memory.FlagRef{}
			if i == count-1 {
				ref = fsync
			}
			if err := ep.Put(src.Addr(0), dst.Addr(0), msg, ref, memory.FlagRef{}); err != nil {
				panic(err)
			}
		}
		ep.WaitFlag(fsync, 1)
		elapsed = ep.Proc().Now() - start
	}, nil)
	return float64(msg*count) / elapsed.Micros()
}

// Table4 runs all micro-benchmarks for one design point.
func Table4(a arch.Params) Table4Row { return Table4Opts(a, Options{}) }

// Table4Opts is Table4 with explicit simulation options.
func Table4Opts(a arch.Params, opt Options) Table4Row {
	return Table4Row{
		Arch:       a.Name,
		PutLatency: PutLatencyOpts(a, 8, opt),
		GetLatency: GetLatencyOpts(a, 8, opt),
		PutSyncOvh: PutSyncOverheadOpts(a, opt),
		AMLatency:  AMLatencyOpts(a, opt),
		PeakBW:     PeakBandwidthOpts(a, opt),
	}
}

// Point is one ping-pong measurement (Figure 7).
type Point struct {
	Bytes   int
	Latency float64 // one-way latency, us
	BW      float64 // streamed bandwidth, MB/s
}

// PingPongPut sweeps message sizes with PUT ping-pongs: one-way latency is
// half the round trip, and bandwidth comes from streaming back-to-back
// PUTs of the same size.
func PingPongPut(a arch.Params, sizes []int) []Point {
	return PingPongPutOpts(a, sizes, Options{})
}

// PingPongPutOpts is PingPongPut with explicit simulation options.
func PingPongPutOpts(a arch.Params, sizes []int, opt Options) []Point {
	out := make([]Point, 0, len(sizes))
	for _, n := range sizes {
		out = append(out, Point{
			Bytes:   n,
			Latency: putPingPong(a, n, opt),
			BW:      putStream(a, n, opt),
		})
	}
	return out
}

func putPingPong(a arch.Params, n int, opt Options) float64 {
	r := newRig(a, opt)
	reg := r.f.Registry()
	b0 := reg.NewSegment(0, n)
	b1 := reg.NewSegment(1, n)
	b0.Grant(1)
	b1.Grant(0)
	ping := reg.NewFlag(1) // set at rank 1 when data lands
	pong := reg.NewFlag(0) // set at rank 0 on the return
	pingF, _ := reg.Flag(ping)
	pongF, _ := reg.Flag(pong)
	var total sim.Time
	r.run(func(ep *comm.Endpoint) {
		for i := 0; i < reps; i++ {
			start := ep.Proc().Now()
			if err := ep.Put(b0.Addr(0), b1.Addr(0), n, memory.FlagRef{}, ping); err != nil {
				panic(err)
			}
			pongF.Wait(ep.Proc(), int64(i+1))
			total += ep.Proc().Now() - start
		}
	}, func(ep *comm.Endpoint) {
		for i := 0; i < reps; i++ {
			pingF.Wait(ep.Proc(), int64(i+1))
			if err := ep.Put(b1.Addr(0), b0.Addr(0), n, memory.FlagRef{}, pong); err != nil {
				panic(err)
			}
		}
	})
	return total.Micros() / reps / 2
}

func putStream(a arch.Params, n int, opt Options) float64 {
	r := newRig(a, opt)
	reg := r.f.Registry()
	src := reg.NewSegment(0, n)
	dst := reg.NewSegment(1, n)
	dst.Grant(0)
	done := reg.NewFlag(0)
	const count = 16
	var elapsed sim.Time
	r.run(func(ep *comm.Endpoint) {
		start := ep.Proc().Now()
		for i := 0; i < count; i++ {
			ref := memory.FlagRef{}
			if i == count-1 {
				ref = done
			}
			if err := ep.Put(src.Addr(0), dst.Addr(0), n, ref, memory.FlagRef{}); err != nil {
				panic(err)
			}
		}
		ep.WaitFlag(done, 1)
		elapsed = ep.Proc().Now() - start
	}, nil)
	return float64(n*count) / elapsed.Micros()
}

// PingPongStore sweeps message sizes with active-message bulk stores: the
// data is PUT and a completion handler fires at the far end, which stores
// the same amount back.
func PingPongStore(a arch.Params, sizes []int) []Point {
	return PingPongStoreOpts(a, sizes, Options{})
}

// PingPongStoreOpts is PingPongStore with explicit simulation options.
func PingPongStoreOpts(a arch.Params, sizes []int, opt Options) []Point {
	out := make([]Point, 0, len(sizes))
	for _, n := range sizes {
		lat, bw := storePingPong(a, n, opt)
		out = append(out, Point{Bytes: n, Latency: lat, BW: bw})
	}
	return out
}

func storePingPong(a arch.Params, n int, opt Options) (latency, bw float64) {
	r := newRig(a, opt)
	l := am.New(r.f)
	reg := r.f.Registry()
	b0 := reg.NewSegment(0, n)
	b1 := reg.NewSegment(1, n)
	b0.Grant(1)
	b1.Grant(0)
	pings, pongs := 0, 0
	var hPing, hPong int
	hPong = l.Register(func(p *am.Port, src int, args []int64, _ []byte) { pongs++ })
	hPing = l.Register(func(p *am.Port, src int, args []int64, _ []byte) {
		pings++
		p.Store(src, b1.Addr(0), b0.Addr(0), n, hPong)
	})
	var total sim.Time
	r.run(func(ep *comm.Endpoint) {
		p := l.Port(0)
		for i := 0; i < reps; i++ {
			start := ep.Proc().Now()
			p.Store(1, b0.Addr(0), b1.Addr(0), n, hPing)
			p.WaitUntil(func() bool { return pongs > i })
			total += ep.Proc().Now() - start
		}
	}, func(ep *comm.Endpoint) {
		p := l.Port(1)
		for pings < reps {
			p.ServeOne()
		}
	})
	latency = total.Micros() / reps / 2
	bw = float64(n) / latency
	return latency, bw
}
