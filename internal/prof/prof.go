// Package prof drives profiled micro-benchmark scenarios for the
// observability stack: it runs a serialized PUT or GET ping-pong under
// any design point with the span recorder and timeline sampler attached,
// then compares the measured per-phase latency breakdown against the
// analytic model's phase predictions (the Table 2 decomposition, one
// delta column per phase). The serialized scenario is the calibration
// point: no queueing, so measured phases should match the model to well
// under a percent; the same machinery attached to a loaded run (via the
// observability flags of the mproxy CLI) then shows exactly which phases
// inflate under contention.
package prof

import (
	"fmt"
	"math"

	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/model"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
	"mproxy/internal/trace/span"
	"mproxy/internal/trace/timeline"
)

// Config selects one profiled scenario.
type Config struct {
	Arch     string // design point name (MP1, HW0, SW1, ...)
	Op       string // "PUT" or "GET"
	Bytes    int
	Reps     int
	PeriodNs int64 // timeline sampling window (0 = default)
	// Fabric tunes the run's communication fabric (command-queue
	// capacity, reliable transport); the zero value is the default
	// quiescent configuration.
	Fabric comm.Options
	// Fault, when non-nil, is installed on the run's cluster.
	Fault machine.FaultPlane
	// Tracer, when non-nil, receives the run's trace stream alongside the
	// profiling consumers.
	Tracer trace.Tracer
}

func (c Config) name() string {
	return fmt.Sprintf("pingpong-%s-%s-%dB", c.Op, c.Arch, c.Bytes)
}

// Result is one profiled run: the recorded spans and sampled timelines.
type Result struct {
	Cfg  Config
	Arch arch.Params
	Rec  *span.Recorder
	Smp  *timeline.Sampler
}

// PingPong runs the serialized latency scenario under cfg with the
// observability stack attached: for PUT, rank 0 and rank 1 exchange
// n-byte PUTs (the regress/Table 4 shape); for GET, rank 0 issues
// back-to-back n-byte GETs from rank 1's segment. Defaults: 64 bytes,
// 8 reps.
func PingPong(cfg Config) (*Result, error) {
	a, ok := arch.ByName(cfg.Arch)
	if !ok {
		return nil, fmt.Errorf("prof: unknown architecture %q", cfg.Arch)
	}
	if cfg.Bytes <= 0 {
		cfg.Bytes = 64
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 8
	}
	if cfg.Op == "" {
		cfg.Op = "PUT"
	}
	if cfg.Op != "PUT" && cfg.Op != "GET" {
		return nil, fmt.Errorf("prof: unsupported op %q", cfg.Op)
	}
	rec := span.NewRecorder()
	smp := timeline.NewSampler(cfg.PeriodNs)
	eng := sim.NewEngine()
	eng.SetTracer(trace.Multi(cfg.Tracer, rec, smp))
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, a)
	if cfg.Fault != nil {
		cl.SetFaultPlane(cfg.Fault)
	}
	smp.SetProbes(timeline.ClusterProbes(cl))
	f := comm.NewWith(cl, cfg.Fabric)
	smp.AddProbes(timeline.FabricProbes(f))
	reg := f.Registry()
	n, reps := cfg.Bytes, cfg.Reps
	b0 := reg.NewSegment(0, n)
	b1 := reg.NewSegment(1, n)
	b0.Grant(1)
	b1.Grant(0)
	switch cfg.Op {
	case "PUT":
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
	case "GET":
		lsync := reg.NewFlag(0)
		eng.Spawn("getter", func(p *sim.Proc) {
			ep := f.Endpoint(0)
			ep.Bind(p)
			for i := 0; i < reps; i++ {
				if err := ep.Get(b0.Addr(0), b1.Addr(0), n, lsync, memory.FlagRef{}); err != nil {
					panic(err)
				}
				ep.WaitFlag(lsync, int64(i+1))
			}
		})
	}
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("prof: %s: %w", cfg.name(), err)
	}
	smp.Flush()
	return &Result{Cfg: cfg, Arch: a, Rec: rec, Smp: smp}, nil
}

// Profile builds the combined observability report for the run.
func (r *Result) Profile() timeline.Profile {
	return timeline.BuildProfile(r.Rec, r.Smp, r.Cfg.name())
}

// Primitives converts a design point's simulator parameters into the
// model's phase-prediction primitives. The conversion goes through the
// same nanosecond rounding the simulator applied when the parameters
// were built, so predictions and measurements share every constant.
func Primitives(a arch.Params) model.PhasePrimitives {
	return model.PhasePrimitives{
		Primitives: model.Primitives{
			C: a.CacheMiss.Micros(),
			U: a.Uncached.Micros(),
			V: a.VMAtt.Micros(),
			S: a.Speed,
			P: a.PollDelay().Micros(),
			L: a.NetLatency.Micros(),
		},
		A:           a.AgentMiss.Micros(),
		PIOMBps:     a.PIOBW,
		NetMBps:     a.NetBW,
		HeaderBytes: comm.HeaderSize,
		AdapterOvh:  a.AdapterOvh.Micros(),
		ComputeOvh:  a.ComputeOvh.Micros(),
		Syscall:     a.SyscallOvh.Micros(),
		Interrupt:   a.InterruptOvh.Micros(),
		Protocol:    a.ProtocolOvh.Micros(),
	}
}

// PhasePredictions returns the model's phase breakdown for an n-byte op
// under a, or nil when the model has no phase form for the combination
// (DMA-range sizes, ENQ/DEQ).
func PhasePredictions(a arch.Params, op string, n int) []model.PhaseCost {
	if n > a.PIOCutoff {
		return nil
	}
	m := Primitives(a)
	switch a.Kind {
	case arch.Proxy:
		switch op {
		case "PUT":
			return m.ProxyPUTPhases(n)
		case "GET":
			return m.ProxyGETPhases(n)
		}
	case arch.CustomHW:
		switch op {
		case "PUT":
			return m.HWPUTPhases(n)
		case "GET":
			return m.HWGETPhases(n)
		}
	case arch.Syscall:
		switch op {
		case "PUT":
			return m.SWPUTPhases(n)
		case "GET":
			return m.SWGETPhases(n)
		}
	}
	return nil
}

// Row is one line of the measured-vs-model breakdown table.
type Row struct {
	Arch       string  `json:"arch"`
	Op         string  `json:"op"`
	Bytes      int     `json:"bytes"`
	Phase      string  `json:"phase"`
	Count      int     `json:"count"`
	MeasuredUs float64 `json:"measured_us"`
	// ModelUs is the analytic prediction; NaN-free: rows without a model
	// value carry Model=false.
	ModelUs  float64 `json:"model_us"`
	Model    bool    `json:"model"`
	DeltaPct float64 `json:"delta_pct"`
}

// BreakdownRows compares the run's measured per-phase means against the
// model's predictions: one row per phase plus a total row.
func (r *Result) BreakdownRows() []Row {
	bd := span.Aggregate(r.Rec.Spans())
	g := bd.ByOp[r.Cfg.Op]
	if g == nil {
		return nil
	}
	pred := PhasePredictions(r.Arch, r.Cfg.Op, r.Cfg.Bytes)
	predBy := make(map[string]float64, len(pred))
	for _, pc := range pred {
		predBy[pc.Phase] = pc.Us
	}
	mk := func(phase string, count int, measured float64) Row {
		row := Row{
			Arch: r.Cfg.Arch, Op: r.Cfg.Op, Bytes: r.Cfg.Bytes,
			Phase: phase, Count: count, MeasuredUs: measured,
		}
		if us, ok := predBy[phase]; ok {
			row.ModelUs = us
			row.Model = true
			row.DeltaPct = deltaPct(measured, us)
		}
		return row
	}
	var rows []Row
	for p := 0; p < span.NumPhases; p++ {
		if g.PhaseCounts[p] == 0 {
			continue
		}
		rows = append(rows, mk(span.Phase(p).String(), g.PhaseCounts[p], g.PhaseMeanUs(span.Phase(p))))
	}
	if len(pred) > 0 {
		predBy["total"] = model.Total(pred)
	}
	rows = append(rows, mk("total", g.Count, g.MeanUs()))
	return rows
}

// deltaPct returns the relative deviation of measured from predicted, in
// percent. A zero prediction with a zero measurement is 0%.
func deltaPct(measured, predicted float64) float64 {
	if predicted == 0 {
		if measured == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * (measured - predicted) / predicted
}
