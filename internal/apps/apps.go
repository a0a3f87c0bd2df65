// Package apps provides the harness for the paper's ten-application suite
// (Table 5): the software stack an application runs on (machine, fabric,
// active messages, collectives, CRL, Split-C), the SPMD launch logic, and
// the timing protocol. Applications implement App and compute their real
// results inside the simulation, charging deterministic compute time via
// the cost model.
package apps

import (
	"fmt"

	"mproxy/internal/am"
	"mproxy/internal/arch"
	"mproxy/internal/coll"
	"mproxy/internal/comm"
	"mproxy/internal/crl"
	"mproxy/internal/machine"
	"mproxy/internal/mpi"
	"mproxy/internal/sim"
	"mproxy/internal/splitc"
	"mproxy/internal/trace"
)

// App is one benchmark program.
type App interface {
	// Name returns the program name as in Table 5.
	Name() string
	// Setup runs host-side before the simulation starts: allocate regions,
	// heaps and initial data.
	Setup(env *Env)
	// Body is the SPMD program body, run by every rank inside the
	// simulation. Implementations bracket their measured phase with
	// env.MarkStart / env.MarkStop.
	Body(env *Env, rank int)
	// Verify checks the computed result host-side after the run.
	Verify() error
}

// Env is the full software stack for one run.
type Env struct {
	Eng  *sim.Engine
	Cl   *machine.Cluster
	Fab  *comm.Fabric
	AM   *am.Layer
	Coll *coll.Group
	CRL  *crl.Layer
	SC   *splitc.World
	MPI  *mpi.World

	timerStart sim.Time
	timerStop  sim.Time
	started    bool
}

// EnvOptions carries per-run simulation parameters that the default stack
// leaves zero: fabric tuning (command-queue capacity, reliable transport),
// an optional fault plane, and an optional per-run tracer. The zero value
// is the fault-free default configuration.
type EnvOptions struct {
	Fabric comm.Options
	Fault  machine.FaultPlane
	// Tracer, when non-nil, is installed on the run's engine before the
	// machine is built, so the trace stream covers the whole construction —
	// the same coverage the golden-trace scenarios get by calling SetTracer
	// immediately after NewEngine. The tracer must not be shared between
	// concurrently running engines.
	Tracer trace.Tracer
}

// NewEnv builds the stack for a cluster of cfg under design point a.
// heapBytes sizes the per-processor Split-C global heap.
func NewEnv(cfg machine.Config, a arch.Params, heapBytes int) *Env {
	return NewEnvWith(cfg, a, heapBytes, EnvOptions{})
}

// NewEnvWith is NewEnv with explicit simulation options.
func NewEnvWith(cfg machine.Config, a arch.Params, heapBytes int, opt EnvOptions) *Env {
	eng := sim.NewEngine()
	if opt.Tracer != nil {
		eng.SetTracer(opt.Tracer)
	}
	cl := machine.New(eng, cfg, a)
	if opt.Fault != nil {
		cl.SetFaultPlane(opt.Fault)
	}
	fab := comm.NewWith(cl, opt.Fabric)
	l := am.New(fab)
	g := coll.NewGroup(l)
	return &Env{
		Eng: eng, Cl: cl, Fab: fab, AM: l, Coll: g,
		CRL: crl.New(l), SC: splitc.New(l, g, heapBytes),
		MPI: mpi.New(l, g),
	}
}

// Procs returns the number of compute processors.
func (e *Env) Procs() int { return e.Cl.Cfg.Procs() }

// MarkStart opens the measured phase: a barrier, then rank 0 records the
// time. Call from every rank.
func (e *Env) MarkStart(rank int) {
	e.Coll.Comm(rank).Barrier()
	if rank == 0 {
		e.timerStart = e.Eng.Now()
		e.started = true
	}
}

// MarkStop closes the measured phase symmetrically.
func (e *Env) MarkStop(rank int) {
	e.Coll.Comm(rank).Barrier()
	if rank == 0 {
		e.timerStop = e.Eng.Now()
	}
}

// Elapsed returns the measured-phase duration.
func (e *Env) Elapsed() sim.Time {
	if !e.started {
		return 0
	}
	return e.timerStop - e.timerStart
}

// Run launches app on every rank, runs the simulation to completion, and
// verifies the result. It returns the measured-phase duration. Once the
// result is verified, the run's kernel-backed segments (the Split-C heaps)
// drop their resident pages: every segment keeps its full size, but its
// contents are discarded.
func Run(env *Env, app App) (sim.Time, error) {
	app.Setup(env)
	n := env.Procs()
	for r := 0; r < n; r++ {
		r := r
		env.Eng.Spawn(fmt.Sprintf("%s-rank%d", app.Name(), r), func(p *sim.Proc) {
			env.Fab.Endpoint(r).Bind(p)
			app.Body(env, r)
			// Final barrier: every rank keeps serving protocol requests
			// (CRL homes, AM queues) until the whole program is done.
			env.Coll.Comm(r).Barrier()
		})
	}
	if err := env.Eng.Run(); err != nil {
		return 0, fmt.Errorf("%s: %w", app.Name(), err)
	}
	if err := app.Verify(); err != nil {
		return 0, fmt.Errorf("%s: verification: %w", app.Name(), err)
	}
	env.Cl.Reg.Release()
	return env.Elapsed(), nil
}
