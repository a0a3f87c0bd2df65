package am

import (
	"fmt"

	"mproxy/internal/arch"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
)

// Run-to-completion active messaging. The serving workloads run clients
// and servers as sim.Tasks; this file is the AM layer's task-side
// surface: SendTask submits a message in continuation-passing style, and
// ServeWhileTask turns a task into the port's message loop. Handlers
// registered for task dispatch receive the serving task and a
// continuation they must invoke exactly once — which lets a KV handler
// chain further sends (a reply, replication fan-out) before yielding the
// loop. Cost accounting matches the blocking API line for line.

// TaskHandler is an active-message handler dispatched on a
// run-to-completion serve loop. It must call k exactly once when its
// work (including any chained sends) is submitted. args and payload are
// valid only until it calls k: the serve loop then reuses both.
type TaskHandler func(p *Port, t *sim.Task, src int, args []int64, payload []byte, k func())

// RegisterTask adds a task-dispatched handler to the table and returns
// its id. Ids share one space with Register's: a message addressed to a
// task handler must be consumed by ServeWhileTask, not a blocking poll.
func (l *Layer) RegisterTask(h TaskHandler) int {
	l.handlers = append(l.handlers, nil)
	l.taskHandlers = append(l.taskHandlers, h)
	return len(l.taskHandlers) - 1
}

// SendTask is Send for a run-to-completion caller: k runs when the
// message has been submitted (local deliveries complete first). args and
// payload are copied into the record at the call, so the caller may
// reuse them as soon as SendTask returns.
func (p *Port) SendTask(t *sim.Task, dst, handler int, args []int64, payload []byte, k func()) {
	if handler < 0 || handler >= len(p.l.handlers) {
		panic(fmt.Sprintf("am: rank %d sends unknown handler %d", p.rank, handler))
	}
	a := &p.l.f.A
	fr := p.newSendFrame()
	fr.t, fr.dst, fr.k = t, dst, k
	fr.rec = encodeInto(p.newRecord(RecordBytes(len(args), len(payload))), handler, p.rank, args, payload)
	p.ep.CPU().ComputeTask(t, a.Instr(1.5)+a.CacheMiss, fr.marshaledK)
}

// sendFrame is one in-flight SendTask: the marshaled record and the
// caller's continuation, carried across the marshaling interval.
type sendFrame struct {
	p   *Port
	t   *sim.Task
	dst int
	rec []byte
	k   func()

	marshaledK func() // prebuilt fr.marshaled
	selfK      func() // prebuilt fr.selfDeliver
}

func (p *Port) newSendFrame() *sendFrame {
	fr := p.pools.send.Get()
	if fr == nil {
		fr = &sendFrame{}
		fr.marshaledK = fr.marshaled
		fr.selfK = fr.selfDeliver
	}
	fr.p = p
	return fr
}

// release returns the frame to its engine's pool and hands back the
// continuation it carried.
func (fr *sendFrame) release() func() {
	k, free := fr.k, &fr.p.pools.send
	fr.p, fr.t, fr.rec, fr.k = nil, nil, nil, nil
	free.Put(fr)
	return k
}

// marshaled runs once the record is built: ENQ it to the destination,
// or deliver it locally.
func (fr *sendFrame) marshaled() {
	p := fr.p
	if fr.dst == p.rank {
		// Queue-mediated like Send: self-sends must not run nested.
		p.ep.CPU().ComputeTask(fr.t, p.l.f.A.CacheMiss, fr.selfK)
		return
	}
	t, dst, rec := fr.t, fr.dst, fr.rec
	k := fr.release()
	if err := p.ep.EnqBytesTask(t, rec, p.l.refs[dst], memory.FlagRef{}, k); err != nil {
		panic(fmt.Sprintf("am: rank %d -> %d: %v", p.rank, dst, err))
	}
}

func (fr *sendFrame) selfDeliver() {
	p := fr.p
	p.l.queues[p.rank].Deliver(fr.rec)
	fr.release()()
}

// ServeWhileTask turns t into the port's message loop: every arriving
// record is dispatched to its task handler, and done is checked after
// each dispatch — when it reports true the loop returns and the task
// ends. A server that never finishes passes a false-returning done and
// is spawned as a daemon. The port's queue must have exactly one
// consumer.
func (p *Port) ServeWhileTask(t *sim.Task, done func() bool) {
	fr := &serveLoop{p: p, t: t, done: done}
	fr.onTakeK = fr.onTake
	fr.resumeK = fr.resume
	fr.handleK = fr.handle
	fr.nextK = fr.next
	fr.step()
}

// serveLoop is one serving task's resident state: the record being
// dispatched, its decoded fields, and the loop's prebuilt continuations.
// Dispatches on a port never overlap — the queue has one consumer — so
// one frame serves the whole loop without allocating per message.
type serveLoop struct {
	p    *Port
	t    *sim.Task
	done func() bool

	rec     []byte
	h, src  int
	args    []int64 // decode scratch, reused by every dispatch
	payload []byte

	onTakeK func([]byte) // prebuilt fr.onTake, the empty-queue TakeAsync callback
	resumeK func()       // prebuilt fr.resume, the parked continuation
	handleK func()       // prebuilt fr.handle
	nextK   func()       // prebuilt fr.next, the handler's continuation
}

func (fr *serveLoop) step() {
	q := fr.p.l.queues[fr.p.rank]
	rec, ok := q.TryTake()
	if !ok {
		q.TakeAsync(fr.onTakeK)
		fr.t.Park(fr.resumeK)
		return
	}
	fr.dispatch(rec)
}

// onTake receives the record an empty-queue wait was served with; the
// queue's records arrive in the owner node's event context.
func (fr *serveLoop) onTake(rec []byte) {
	fr.rec = rec
	fr.p.ep.Node().Eng.WakeTask(fr.t)
}

func (fr *serveLoop) resume() { fr.dispatch(fr.rec) }

// dispatch charges the receive-side costs (queue pop plus handler
// invocation, as Recv + dispatch would) and then runs the task handler,
// whose continuation loops or finishes the serve.
func (fr *serveLoop) dispatch(rec []byte) {
	p := fr.p
	fr.rec = rec
	fr.h, fr.src, fr.args, fr.payload = decodeInto(rec, fr.args)
	a := &p.l.f.A
	n := msgHeader + 8*len(fr.args) + len(fr.payload)
	cost := p.l.f.RecvCost() + a.Instr(2.0) + 2*a.CacheMiss + arch.XferTime(n, a.PIOBW)
	p.ep.CPU().ComputeTask(fr.t, cost, fr.handleK)
}

func (fr *serveLoop) handle() {
	p := fr.p
	p.delivered++
	th := p.l.taskHandlers[fr.h]
	if th == nil {
		panic(fmt.Sprintf("am: handler %d is poll-registered; it cannot run on a task serve loop", fr.h))
	}
	th(p, fr.t, fr.src, fr.args, fr.payload, fr.nextK)
}

func (fr *serveLoop) next() {
	fr.p.freeRecord(fr.rec)
	fr.rec, fr.payload = nil, nil
	if fr.done() {
		return
	}
	fr.step()
}
