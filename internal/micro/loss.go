package micro

import (
	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/fault"
	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/rel"
	"mproxy/internal/sim"
)

// LossPoint is one row of the loss-rate sweep: the micro-benchmark
// numbers with the reliable transport enabled over a wire that drops the
// given fraction of packets.
type LossPoint struct {
	Rate        float64
	LatencyUs   float64 // one-way small-PUT ping-pong latency
	BWMBs       float64 // streamed large-PUT bandwidth
	Retransmits int64   // across both benchmarks
	AcksSent    int64   // standalone acks (piggybacks are free)
	LinkLost    int64   // packets destroyed by the fault plane
	Failed      bool    // a flow exhausted its retry budget
}

// sweepReps is the ping-pong repetition count for loss sweeps: higher
// than the quiescent benchmarks so rare drops at low rates have a chance
// to land inside the measured window.
const sweepReps = 256

// newFaultRig is newRig plus a seeded fault plane and reliable transport.
// The sweep owns the fault plane (one per drop rate); opt contributes the
// fabric tuning and, optionally, a non-default rel configuration.
func newFaultRig(a arch.Params, fc fault.Config, opt Options) *rig {
	eng := opt.newEngine()
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, a)
	if fc.Active() {
		cl.SetFaultPlane(fault.NewPlane(fc))
	}
	fabOpt := opt.Fabric
	if fabOpt.Rel == nil {
		fabOpt.Rel = &rel.Config{}
	}
	return &rig{eng: eng, f: comm.NewWith(cl, fabOpt)}
}

// lost sums the packets the fault plane destroyed on both nodes' links.
func (r *rig) lost() int64 {
	var n int64
	for _, nd := range r.f.Cl.Nodes {
		n += nd.OutLink.Lost()
	}
	return n
}

// LossSweep measures ping-pong latency and streamed bandwidth for each
// drop rate, always through the reliable transport, so rate 0 is the
// protocol-overhead baseline and the higher rates show pure loss
// degradation (timeout stalls, retransmission traffic). Results are
// deterministic in (a, seed).
func LossSweep(a arch.Params, rates []float64, seed uint64) []LossPoint {
	return LossSweepOpts(a, rates, seed, Options{})
}

// LossSweepOpts is LossSweep with explicit simulation options. The sweep
// still builds its own fault plane per rate; opt.Fault is ignored.
func LossSweepOpts(a arch.Params, rates []float64, seed uint64, opt Options) []LossPoint {
	out := make([]LossPoint, 0, len(rates))
	for _, rate := range rates {
		fc := fault.Config{Seed: seed, Drop: rate}
		pt := LossPoint{Rate: rate}

		lat := newFaultRig(a, fc, opt)
		pt.LatencyUs = lat.lossPingPong(64)
		st := lat.f.Rel().Stats()
		pt.Retransmits += st.Retransmits
		pt.AcksSent += st.AcksSent
		pt.LinkLost += lat.lost()
		pt.Failed = pt.Failed || lat.f.RelErr() != nil

		bw := newFaultRig(a, fc, opt)
		pt.BWMBs = bw.lossStream(64 * 1024)
		st = bw.f.Rel().Stats()
		pt.Retransmits += st.Retransmits
		pt.AcksSent += st.AcksSent
		pt.LinkLost += bw.lost()
		pt.Failed = pt.Failed || bw.f.RelErr() != nil

		out = append(out, pt)
	}
	return out
}

// lossPingPong is putPingPong on this rig: mean one-way latency of
// sweepReps PUT round trips of n bytes.
func (r *rig) lossPingPong(n int) float64 {
	reg := r.f.Registry()
	b0 := reg.NewSegment(0, n)
	b1 := reg.NewSegment(1, n)
	b0.Grant(1)
	b1.Grant(0)
	ping := reg.NewFlag(1)
	pong := reg.NewFlag(0)
	pingF, _ := reg.Flag(ping)
	pongF, _ := reg.Flag(pong)
	var total sim.Time
	r.run(func(ep *comm.Endpoint) {
		for i := 0; i < sweepReps; i++ {
			start := ep.Proc().Now()
			if err := ep.Put(b0.Addr(0), b1.Addr(0), n, memory.FlagRef{}, ping); err != nil {
				panic(err)
			}
			pongF.Wait(ep.Proc(), int64(i+1))
			total += ep.Proc().Now() - start
		}
	}, func(ep *comm.Endpoint) {
		for i := 0; i < sweepReps; i++ {
			pingF.Wait(ep.Proc(), int64(i+1))
			if err := ep.Put(b1.Addr(0), b0.Addr(0), n, memory.FlagRef{}, pong); err != nil {
				panic(err)
			}
		}
	})
	return total.Micros() / sweepReps / 2
}

// lossStream is putStream on this rig: delivered MB/s over 16 streamed
// PUTs of n bytes.
func (r *rig) lossStream(n int) float64 {
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
	if elapsed <= 0 {
		return 0
	}
	return float64(n*count) / elapsed.Micros()
}
