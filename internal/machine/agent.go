package machine

import (
	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// Agent is a node's communication agent: a server that executes work
// items one at a time in FIFO order. For a message proxy the agent is the
// dedicated SMP processor running the polling loop of Figure 5; for
// custom hardware it is the adapter's protocol engine.
//
// A work item advances simulated time with Hold and may use node
// resources. Items submitted while the agent is idle incur the notice
// delay (the proxy's polling delay P — time spent scanning other queues
// before reaching this one); items that queue behind other work are
// picked up as the loop reaches them and incur queueing delay instead,
// which is how proxy contention emerges in the Figure 9 experiment.
//
// The agent is a run-to-completion sim.Task: each turn takes one item,
// runs it to completion through Hold continuations on the agent's task,
// and goes back to polling.
type Agent struct {
	Name   string
	eng    *sim.Engine
	queue  sim.FIFO[agentWork]
	notice sim.Time

	busyTotal sim.Time
	served    int64
	waitTotal sim.Time

	// inService/serviceAt track the work item currently executing, so
	// BusyTime is exact at any snapshot instant, not only between items.
	inService bool
	serviceAt sim.Time

	// plane, when non-nil, is consulted before each work item for
	// stall/crash faults; onRestart runs after a crash window so the
	// owner can rebuild volatile state (a proxy restarts its scan loop).
	plane     FaultPlane
	onRestart func()
	stalls    int64
	restarts  int64

	// onIdle, when non-nil, runs when the agent finds its queue empty,
	// immediately before it would block or park. It may Submit new work
	// (which the agent then picks up without blocking); the fabric's
	// work-stealing policy uses it to steal a scan turn from a loaded
	// sibling proxy instead of going idle.
	onIdle func()

	// The agent's task and its resident state machine. One work item is
	// in flight at a time, so a single reusable frame (cur, fate)
	// suffices; the continuations are built once at construction so the
	// steady-state serve cycle allocates nothing.
	task    *sim.Task
	cur     agentWork
	fate    AgentFate
	exec    any // model-layer per-agent scratch (the fabric's protocol frame)
	awaitFn func()
	beginFn func()
	serveFn func()
}

// Work is one agent work item. TFn is its body: it runs on the agent's
// Task with Arg as its operand and must eventually call Agent.WorkDone
// exactly once (possibly from a later continuation). A Work with a nil
// body is the shutdown poison pill.
type Work struct {
	TFn func(a *Agent, arg any)
	Arg any
}

type agentWork struct {
	w  Work
	at sim.Time
}

// NewAgent creates an agent server on eng.
func NewAgent(eng *sim.Engine, name string, notice sim.Time) *Agent {
	a := new(Agent)
	a.init(eng, name, name+".q", notice)
	return a
}

// init makes the zero Agent a an agent named name whose work queue is
// named qname, and spawns its task.
func (a *Agent) init(eng *sim.Engine, name, qname string, notice sim.Time) {
	a.Name, a.eng, a.notice = name, eng, notice
	a.queue.Init(eng, qname)
	a.awaitFn = a.awaitWork
	a.beginFn = a.begin
	a.serveFn = a.serve
	a.task = eng.SpawnTaskDaemon(name, a.start)
}

// start is the agent task's start function.
func (a *Agent) start(*sim.Task) { a.awaitWork() }

// awaitWork is the agent's idle state: take the next item or park.
func (a *Agent) awaitWork() {
	w, ok := a.queue.TryGet()
	if !ok && a.onIdle != nil {
		a.onIdle()
		w, ok = a.queue.TryGet()
	}
	if !ok {
		a.queue.ParkGetter(a.task, a.awaitFn)
		return
	}
	a.cur = w
	if w.w.TFn == nil {
		a.task.End() // poison pill from Shutdown
		return
	}
	a.fate = AgentFate{}
	if a.plane != nil {
		a.fate = a.plane.AgentFault(a.Name, a.served, a.eng.Now())
		if a.fate.Stall > 0 {
			a.eng.Emit(trace.KStall, a.Name, int64(a.fate.Stall))
			a.stalls++
			a.task.Hold(a.fate.Stall, a.beginFn)
			return
		}
	}
	a.begin()
}

// begin runs after any stall fault: restart hook, then the notice delay
// for items that arrived while the agent was idle (blocked waiting for
// work). Items found queued when a previous item finishes are reached by
// the ongoing scan and pay queueing delay only.
func (a *Agent) begin() {
	if a.fate.Restart {
		a.restarts++
		if a.onRestart != nil {
			a.onRestart()
		}
	}
	if a.eng.Now() == a.cur.at && a.notice > 0 {
		a.task.Hold(a.notice, a.serveFn)
		return
	}
	a.serve()
}

// serve starts the current item's body.
func (a *Agent) serve() {
	now := a.eng.Now()
	a.waitTotal += now - a.cur.at
	a.eng.Emit(trace.KPoll, a.Name, int64(now-a.cur.at))
	a.inService = true
	a.serviceAt = now
	a.cur.w.TFn(a, a.cur.w.Arg)
}

// WorkDone completes the current work item and moves the agent to its
// next item (or back to idle). Every Work.TFn must arrange for exactly
// one WorkDone call.
func (a *Agent) WorkDone() {
	a.inService = false
	a.busyTotal += a.eng.Now() - a.serviceAt
	a.served++
	a.cur = agentWork{}
	a.awaitWork()
}

// Task returns the agent's task. Work bodies use it for Hold
// continuations.
func (a *Agent) Task() *sim.Task { return a.task }

// SetExec attaches model-layer per-agent scratch state; Exec returns it.
// The communication fabric hangs its reusable protocol frame here so hot
// work items need no per-item allocation.
func (a *Agent) SetExec(x any) { a.exec = x }

// Exec returns the scratch state installed by SetExec.
func (a *Agent) Exec() any { return a.exec }

// Submit enqueues a work item.
func (a *Agent) Submit(w Work) {
	a.queue.Put(agentWork{w: w, at: a.eng.Now()})
}

// SetFaultPlane installs (or, with nil, removes) the agent's fault plane.
func (a *Agent) SetFaultPlane(p FaultPlane) { a.plane = p }

// OnRestart installs the hook run after a crash-and-restart fault. The
// communication fabric uses it to restart the proxy's scan loop: queued
// commands survive (they live in user memory) but the scanner's position
// and non-empty summary are rebuilt from scratch.
func (a *Agent) OnRestart(fn func()) { a.onRestart = fn }

// OnIdle installs (or, with nil, removes) the hook run when the agent
// finds its work queue empty, just before blocking. The hook may Submit
// work, in which case the agent serves it without ever going idle; work
// submitted this way arrives at the current instant and therefore pays
// the notice delay like any item that catches the agent idle.
func (a *Agent) OnIdle(fn func()) { a.onIdle = fn }

// Stalls returns the number of stall faults the agent absorbed.
func (a *Agent) Stalls() int64 { return a.stalls }

// Restarts returns the number of crash-and-restart faults absorbed.
func (a *Agent) Restarts() int64 { return a.restarts }

// Shutdown terminates the agent's task once queued work drains.
func (a *Agent) Shutdown() { a.queue.Put(agentWork{at: a.eng.Now()}) }

// QueueLen returns the number of pending work items.
func (a *Agent) QueueLen() int { return a.queue.Len() }

// BusyTime returns the total time spent executing work items (excluding
// idle polling), including the portion of the currently executing item up
// to the present instant — so a snapshot taken mid-service is exact.
func (a *Agent) BusyTime() sim.Time {
	t := a.busyTotal
	if a.inService {
		t += a.eng.Now() - a.serviceAt
	}
	return t
}

// Served returns the number of completed work items.
func (a *Agent) Served() int64 { return a.served }

// Utilization returns BusyTime over the elapsed interval — the paper's
// "interface utilization" (Table 6).
func (a *Agent) Utilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(a.BusyTime()) / float64(elapsed)
}

// UtilizationSince returns the fraction of [since, now] the agent spent
// executing work items, given the cumulative BusyTime observed at since
// (see sim.Resource.UtilizationSince for the windowing contract).
func (a *Agent) UtilizationSince(since, busyAtSince sim.Time) float64 {
	now := a.eng.Now()
	if now <= since {
		return 0
	}
	return float64(a.BusyTime()-busyAtSince) / float64(now-since)
}

// MeanWait returns the average delay between submission and the start of
// service (notice delay plus queueing).
func (a *Agent) MeanWait() sim.Time {
	if a.served == 0 {
		return 0
	}
	return a.waitTotal / sim.Time(a.served)
}
