package sim

import (
	"fmt"
	"iter"

	"mproxy/internal/trace"
)

// Proc is a simulated process. A Proc's body runs on its own coroutine
// (an iter.Pull iterator), and is only ever executing while the engine is
// blocked inside next() waiting for it, so the simulation remains
// sequential and deterministic. The coroutine switch transfers control
// directly between the engine and the process without a trip through the
// goroutine scheduler, which makes a park/resume cycle several times
// cheaper than a channel handshake.
type Proc struct {
	eng     *Engine
	name    string
	next    func() (struct{}, bool)
	yield   func(struct{}) bool
	run     func() // prebuilt handoff closure: wake events carry it, so waking allocates nothing
	dead    bool
	daemon  bool
	killed  bool
	started bool
}

// Spawn creates a process whose body starts executing at the current
// simulated time (after already-scheduled events at this timestamp).
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.spawn(name, body, false)
}

// SpawnDaemon creates a process like Spawn, but the process does not count
// toward deadlock detection: a daemon blocked forever (a server loop whose
// clients are gone) is not an error. Communication agents are daemons.
func (e *Engine) SpawnDaemon(name string, body func(p *Proc)) *Proc {
	return e.spawn(name, body, true)
}

// procKilled is the sentinel Park panics with when the engine reaps a
// blocked process at shutdown; the coroutine wrapper swallows it.
type procKilled struct{}

func (e *Engine) spawn(name string, body func(p *Proc), daemon bool) *Proc {
	p := &Proc{eng: e, name: name, daemon: daemon}
	p.run = p.resume
	if e.down {
		p.dead = true
		return p
	}
	if !daemon {
		e.live++
	}
	e.actors.add(actor{p: p})
	e.Schedule(0, func() {
		if e.down {
			// The engine was shut down before this spawn fired (a final
			// RunUntil after Shutdown): the reaper has already run, so the
			// body must never start.
			p.dead = true
			if !daemon {
				e.live--
			}
			return
		}
		p.started = true
		e.Emit(trace.KSpawn, p.name, 0)
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(procKilled); !ok && e.failure == nil {
						e.failure = fmt.Errorf("sim: process %q panicked at %v: %v", p.name, e.now, r)
					}
				}
				p.dead = true
				if !daemon {
					e.live--
				}
				var killed int64
				if p.killed {
					killed = 1
				}
				e.Emit(trace.KProcEnd, p.name, killed)
			}()
			body(p)
		})
		e.transfer(p)
	})
	return p
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Park hands control back to the engine and blocks until another process
// or event calls Engine.Wake on this process. It is the low-level primitive
// behind Flag, FIFO and Resource; external packages may use it to build
// their own blocking structures.
func (p *Proc) Park() {
	p.eng.Emit(trace.KPark, p.name, 0)
	if !p.yield(struct{}{}) || p.killed {
		// The engine reaped this process while it was parked (or the
		// iterator was stopped underneath it): unwind the body.
		p.killed = true
		panic(procKilled{})
	}
	p.eng.Emit(trace.KUnpark, p.name, 0)
}

// Hold advances the process's local time by d: the process blocks and
// resumes d simulated time units later. Hold(0) yields, letting other
// events at the same timestamp run first.
//
// When the wake would be the next event to fire anyway (see
// Engine.canRunAhead), Hold runs ahead: it advances the clock in place
// and skips the two coroutine switches, with the same sequence numbers,
// clock and trace records as the scheduled path.
func (p *Proc) Hold(d Time) {
	if p.eng.canRunAhead(d) {
		p.eng.runAhead(p, d)
		return
	}
	p.hold(d)
}

// hold is Hold's scheduled path: schedule the wake and park until it
// fires.
func (p *Proc) hold(d Time) {
	p.eng.Schedule(d, p.run)
	p.Park()
}

// resume is the body of every wake event: it hands control to p.
func (p *Proc) resume() { p.eng.transfer(p) }
