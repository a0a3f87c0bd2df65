package sim

import "mproxy/internal/trace"

// Task is a run-to-completion actor: the callback/state-machine
// counterpart of Proc. A Task never owns a goroutine; each wake-up runs a
// continuation inline from the engine loop until the continuation either
// parks again (Hold, FIFO.ParkGetter, Flag.WaitTask) or the task ends.
//
// A Task's trace stream is indistinguishable from an equivalent Proc's:
// spawning emits KSchedule/KFire/KSpawn, parking emits KPark, waking
// emits KSchedule then KFire/KUnpark, and termination emits KProcEnd —
// in exactly the coroutine order. That equivalence is what lets the two
// models interleave in one engine under one (at, seq) total order:
// communication agents run as Tasks, application processes as Procs.
type Task struct {
	eng     *Engine
	name    string
	next    func()
	run     func() // prebuilt dispatch closure: wake events carry it, so waking allocates nothing
	daemon  bool
	dead    bool
	started bool
}

// SpawnTask creates a task whose start function runs at the current
// simulated time (after already-scheduled events at this timestamp),
// mirroring Spawn.
func (e *Engine) SpawnTask(name string, start func(t *Task)) *Task {
	return e.spawnTask(name, start, false)
}

// SpawnTaskDaemon is SpawnTask for server tasks that do not count toward
// deadlock detection, mirroring SpawnDaemon.
func (e *Engine) SpawnTaskDaemon(name string, start func(t *Task)) *Task {
	return e.spawnTask(name, start, true)
}

func (e *Engine) spawnTask(name string, start func(t *Task), daemon bool) *Task {
	t := &Task{eng: e, name: name, daemon: daemon}
	t.run = t.dispatch
	if e.down {
		t.dead = true
		return t
	}
	if !daemon {
		e.live++
	}
	e.actors = append(e.actors, actor{t: t})
	e.Schedule(0, func() {
		if e.down {
			t.dead = true
			if !daemon {
				e.live--
			}
			return
		}
		t.started = true
		e.Emit(trace.KSpawn, t.name, 0)
		start(t)
		t.settle()
	})
	return t
}

// Engine returns the engine this task belongs to.
func (t *Task) Engine() *Engine { return t.eng }

// Name returns the task name given at SpawnTask.
func (t *Task) Name() string { return t.name }

// Now returns the current simulated time.
func (t *Task) Now() Time { return t.eng.now }

// Park records k as the continuation to run at the task's next wake-up
// (Engine.WakeTask, or a sync primitive the task blocked on) and returns
// control to the caller — the Task analogue of Proc.Park. The caller must
// return to the engine without further simulation effects.
func (t *Task) Park(k func()) {
	t.next = k
	t.eng.Emit(trace.KPark, t.name, 0)
}

// Hold runs k after d time units of simulated delay: the continuation
// form of Proc.Hold. Hold(0, k) yields, letting other events at the same
// timestamp run first.
func (t *Task) Hold(d Time, k func()) {
	t.eng.Schedule(d, t.run)
	t.Park(k)
}

// End terminates the task, emitting the same KProcEnd a Proc body's
// return does. A continuation chain that simply stops parking is ended
// automatically; End exists for explicit early exits (poison pills).
func (t *Task) End() { t.end(0) }

// Dead reports whether the task has ended.
func (t *Task) Dead() bool { return t.dead }

func (t *Task) end(killed int64) {
	if t.dead {
		return
	}
	t.dead = true
	t.next = nil
	if !t.daemon {
		t.eng.live--
	}
	t.eng.Emit(trace.KProcEnd, t.name, killed)
}

// dispatch is the body of every wake event: it consumes the parked
// continuation and runs it to completion. Wakes pending for an ended task
// are dropped, matching the engine's guard against transfers to dead
// processes.
func (t *Task) dispatch() {
	if t.dead {
		return
	}
	k := t.next
	t.next = nil
	t.eng.Emit(trace.KUnpark, t.name, 0)
	if k == nil {
		panic("sim: task " + t.name + " woken with no continuation")
	}
	k()
	t.settle()
}

// settle ends the task when its continuation chain ran off the end
// without parking again — the Task analogue of a Proc body returning.
func (t *Task) settle() {
	if !t.dead && t.next == nil {
		t.end(0)
	}
}

// WakeTask schedules t's parked continuation to run at the current time
// (after already-scheduled events at this timestamp), pairing with
// Task.Park exactly as Wake pairs with Proc.Park.
func (e *Engine) WakeTask(t *Task) {
	e.Schedule(0, t.run)
}

// actor is one spawned process or task, recorded in spawn order so
// Shutdown reaps both models in a single deterministic pass.
type actor struct {
	p *Proc
	t *Task
}

// waiter is a parked actor of either execution model, used by the sync
// primitives (FIFO, Flag) whose wait queues must admit both.
type waiter struct {
	p *Proc
	t *Task
}

// wakeWaiter wakes a parked actor of either model; both paths emit the
// same KSchedule, keeping wake order — and therefore trace streams —
// identical regardless of who is waiting.
func (e *Engine) wakeWaiter(w waiter) {
	if w.p != nil {
		e.Schedule(0, w.p.run)
		return
	}
	e.Schedule(0, w.t.run)
}
