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
// The agent is a run-to-completion sim.Task, embedded in it: each turn
// takes one item, runs it to completion through Hold continuations, and
// goes back to polling. One state field drives the whole agent, its own
// idle, stall and notice states and its Exec's protocol states alike, so
// every wake runs the same prebuilt continuation.
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
	// stall/crash faults.
	plane    FaultPlane
	stalls   int64
	restarts int64

	// The agent's task and its state machine. One work item is in flight
	// at a time, so a single frame (cur, fate) suffices; k is the one
	// continuation every wake runs, built at construction so the
	// steady-state serve cycle allocates nothing.
	task  sim.Task
	state int
	k     func()
	cur   agentWork
	fate  AgentFate
	exec  Exec
}

// Exec is the model layer's side of an agent: the bodies of its work
// items, run on the agent's task one at a time. The communication fabric
// implements it with its per-agent protocol frame.
type Exec interface {
	// Serve starts the body of a work item of the given kind. The body
	// advances simulated time with Agent.Hold and Agent.Occupy, each
	// naming the state Step resumes at, and ends by calling
	// Agent.WorkDone exactly once.
	Serve(kind uint8, arg any)
	// Step resumes the current body at state pc.
	Step(pc int)
	// Idle runs when the agent finds its queue empty, immediately before
	// it would park. It may Submit work, which the agent then serves
	// without parking; such work arrives at the current instant and so
	// pays the notice delay like any item that catches the agent idle.
	// The fabric's work-stealing policy uses it to steal a scan turn from
	// a loaded sibling proxy instead of going idle.
	Idle()
	// Restart runs after a crash-and-restart fault so the model can
	// rebuild its volatile state (a proxy restarts its scan loop).
	Restart()
}

// The agent's own states. They are negative; every other state is its
// Exec's, passed to Exec.Step.
const (
	agentAwait = -1 - iota // idle: take the next item or park
	agentBegin             // after a stall fault
	agentServe             // after the notice delay
)

// agentWork is one queued work item. A stop item is the shutdown poison
// pill.
type agentWork struct {
	at   sim.Time
	kind uint8
	stop bool
	arg  any
}

// NewAgent creates an agent server on eng. Attach its Exec before the
// agent receives work.
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
	a.state = agentAwait
	a.k = a.step
	eng.SpawnTaskDaemonInto(&a.task, name, a.k)
}

// Attach installs the agent's Exec.
func (a *Agent) Attach(x Exec) { a.exec = x }

// step is the agent's one continuation: it resumes whatever state the
// agent parked in.
func (a *Agent) step() {
	switch a.state {
	case agentAwait:
		a.awaitWork()
	case agentBegin:
		a.begin()
	case agentServe:
		a.serve()
	default:
		a.exec.Step(a.state)
	}
}

// awaitWork is the agent's idle state: take the next item or park.
func (a *Agent) awaitWork() {
	w, ok := a.queue.TryGet()
	if !ok && a.exec != nil { // a cluster built without a fabric has no Exec
		a.exec.Idle()
		w, ok = a.queue.TryGet()
	}
	if !ok {
		a.state = agentAwait
		a.queue.ParkGetter(&a.task, a.k)
		return
	}
	a.cur = w
	if w.stop {
		a.task.End() // poison pill from Shutdown
		return
	}
	a.fate = AgentFate{}
	if a.plane != nil {
		a.fate = a.plane.AgentFault(a.Name, a.served, a.eng.Now())
		if a.fate.Stall > 0 {
			a.eng.Emit(trace.KStall, a.Name, int64(a.fate.Stall))
			a.stalls++
			a.Hold(a.fate.Stall, agentBegin)
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
		a.exec.Restart()
	}
	if a.eng.Now() == a.cur.at && a.notice > 0 {
		a.Hold(a.notice, agentServe)
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
	a.exec.Serve(a.cur.kind, a.cur.arg)
}

// Hold parks the agent for d of simulated time and resumes it in state
// pc: the current work item's body at its Exec's Step(pc). Hold(0, pc)
// yields, letting other events at the same timestamp run first.
func (a *Agent) Hold(d sim.Time, pc int) {
	a.state = pc
	a.task.Hold(d, a.k)
}

// Occupy keeps the current body busy while n bytes pass through l (a DMA
// page transfer); the agent's Exec resumes it at Step(pc).
func (a *Agent) Occupy(l *Link, n, pc int) {
	a.state = pc
	l.OccupyTask(&a.task, n, a.k)
}

// WorkDone completes the current work item and moves the agent to its
// next item (or back to idle). Every body must arrange for exactly one
// WorkDone call.
func (a *Agent) WorkDone() {
	a.inService = false
	a.busyTotal += a.eng.Now() - a.serviceAt
	a.served++
	a.cur = agentWork{}
	a.awaitWork()
}

// Submit enqueues a work item of the given kind with operand arg, both
// passed to the agent's Exec.Serve.
func (a *Agent) Submit(kind uint8, arg any) {
	a.queue.Put(agentWork{at: a.eng.Now(), kind: kind, arg: arg})
}

// SetFaultPlane installs (or, with nil, removes) the agent's fault plane.
func (a *Agent) SetFaultPlane(p FaultPlane) { a.plane = p }

// Stalls returns the number of stall faults the agent absorbed.
func (a *Agent) Stalls() int64 { return a.stalls }

// Restarts returns the number of crash-and-restart faults absorbed.
func (a *Agent) Restarts() int64 { return a.restarts }

// Shutdown terminates the agent's task once queued work drains.
func (a *Agent) Shutdown() { a.queue.Put(agentWork{at: a.eng.Now(), stop: true}) }

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
