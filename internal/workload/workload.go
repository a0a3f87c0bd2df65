// Package workload drives the paper's application experiments: the
// self-relative speedup curves of Figure 8 (1-16 processors, one compute
// processor per node), the message-traffic statistics of Table 6, and the
// SMP-contention configuration of Figure 9 (4 nodes x 4 compute processors).
package workload

import (
	"fmt"

	"mproxy/internal/apps"
	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/machine"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// DefaultHeapBytes is the per-rank Split-C heap used when Options leaves
// HeapBytes zero. It suits the test and small scales; the full-scale
// presets raise it (FFT over 1M points needs ~64 MiB per rank at low
// processor counts). Capacity is free: the heap is a kernel-backed
// segment (memory.Registry.NewSegment), so only the pages a program
// allocates and touches cost zeroing or resident memory — at small scale
// no application's high-water mark passes 1 MiB of the 8.
const DefaultHeapBytes = 8 << 20

// Options carries per-run simulation parameters. The zero value is the
// fault-free default configuration every test and driver used before
// options existed, so Run(app, a, nodes, ppn) behaves unchanged.
type Options struct {
	// Fabric tunes the communication fabric (command-queue capacity,
	// reliable transport).
	Fabric comm.Options
	// Fault, when non-nil, is installed on the run's cluster before any
	// traffic flows.
	Fault machine.FaultPlane
	// HeapBytes sizes the per-rank Split-C heap; zero means
	// DefaultHeapBytes.
	HeapBytes int
	// Tracer, when non-nil, receives the run's full trace stream (see
	// apps.EnvOptions.Tracer). A tracer is not synchronized, so RunJobs
	// runs jobs that carry one on a single worker.
	Tracer trace.Tracer
}

func (o Options) heapBytes() int {
	if o.HeapBytes > 0 {
		return o.HeapBytes
	}
	return DefaultHeapBytes
}

func (o Options) envOptions() apps.EnvOptions {
	return apps.EnvOptions{Fabric: o.Fabric, Fault: o.Fault, Tracer: o.Tracer}
}

// Result captures one application run.
type Result struct {
	App   string
	Arch  string
	Nodes int
	PPN   int // compute processors per node

	Time sim.Time // measured-phase duration

	// Traffic statistics (Table 6).
	Msgs       int64   // inter-node RMA/RQ operations
	IntraOps   int64   // operations that stayed inside a node
	AvgMsgSize float64 // bytes per operation
	MsgRate    float64 // per-processor operations per millisecond
	// AgentUtil is the busiest node agent's utilization over the run
	// ("interface utilization"); zero under SW, which has no agent.
	AgentUtil float64
	// CPUStolen is the largest fraction of a compute processor consumed
	// by interrupt handling (SW only).
	CPUStolen float64
	// Latency holds observed one-way operation latencies under the
	// application's load (contrast with Table 4's quiescent round trips).
	Latency map[comm.OpKind]comm.LatencyStat
	// Events is the number of events the run scheduled
	// (sim.Engine.Scheduled).
	Events uint64
}

// Procs returns the total compute processors.
func (r Result) Procs() int { return r.Nodes * r.PPN }

// Run executes one application instance on nodes x ppn processors under a
// with default options.
func Run(app apps.App, a arch.Params, nodes, ppn int) (Result, error) {
	return RunOpts(app, a, machine.Config{Nodes: nodes, ProcsPerNode: ppn}, Options{})
}

// RunConfig is Run with full topology control (e.g. multiple proxies per
// node for the Section 5.4 multi-proxy experiment).
func RunConfig(app apps.App, a arch.Params, cfg machine.Config) (Result, error) {
	return RunOpts(app, a, cfg, Options{})
}

// RunOpts is RunConfig with explicit simulation options.
func RunOpts(app apps.App, a arch.Params, cfg machine.Config, opt Options) (Result, error) {
	env := apps.NewEnvWith(cfg, a, opt.heapBytes(), opt.envOptions())
	elapsed, err := apps.Run(env, app)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		App: app.Name(), Arch: a.Name, Nodes: cfg.Nodes, PPN: cfg.ProcsPerNode, Time: elapsed,
	}
	stats := env.Fab.Stats()
	res.Msgs = stats.TotalOps() - stats.Intra
	res.IntraOps = stats.Intra
	res.AvgMsgSize = stats.AvgMsgSize()
	total := env.Eng.Now()
	if elapsed > 0 {
		res.MsgRate = float64(res.Msgs) / float64(res.Procs()) / elapsed.Millis()
	}
	for _, nd := range env.Cl.Nodes {
		for _, ag := range nd.Agents {
			if u := ag.Utilization(total); u > res.AgentUtil {
				res.AgentUtil = u
			}
		}
	}
	for _, cpu := range env.Cl.CPUs {
		if total > 0 {
			if f := float64(cpu.Stolen()) / float64(total); f > res.CPUStolen {
				res.CPUStolen = f
			}
		}
	}
	res.Latency = env.Fab.LatencyStats()
	res.Events = env.Eng.Scheduled()
	return res, nil
}

// Curve is one app x arch speedup series.
type Curve struct {
	App     string
	Arch    string
	Procs   []int
	Times   []sim.Time
	Speedup []float64 // relative to the reference T(1)
}

// Speedups runs an application factory over the processor counts for each
// design point and normalizes to the single-processor time of refArch
// (the paper uses T(1) on HW1).
func Speedups(newApp func() apps.App, archs []arch.Params, procs []int, refArch string) ([]Curve, error) {
	var t1 sim.Time
	ref, ok := arch.ByName(refArch)
	if !ok {
		return nil, fmt.Errorf("unknown reference architecture %q", refArch)
	}
	refRes, err := Run(newApp(), ref, 1, 1)
	if err != nil {
		return nil, err
	}
	t1 = refRes.Time

	var curves []Curve
	for _, a := range archs {
		c := Curve{App: refRes.App, Arch: a.Name}
		for _, p := range procs {
			res, err := Run(newApp(), a, p, 1)
			if err != nil {
				return nil, fmt.Errorf("%s on %s x%d: %w", refRes.App, a.Name, p, err)
			}
			c.Procs = append(c.Procs, p)
			c.Times = append(c.Times, res.Time)
			c.Speedup = append(c.Speedup, float64(t1)/float64(res.Time))
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// SMPRun executes the Figure 9 configuration: SMP nodes with several
// compute processors sharing one interface.
func SMPRun(newApp func() apps.App, a arch.Params, nodes, ppn int) (Result, error) {
	return Run(newApp(), a, nodes, ppn)
}

// SMPRunOpts is SMPRun with full topology control and explicit options.
func SMPRunOpts(newApp func() apps.App, a arch.Params, cfg machine.Config, opt Options) (Result, error) {
	return RunOpts(newApp(), a, cfg, opt)
}
