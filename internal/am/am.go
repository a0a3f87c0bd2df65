// Package am implements an Active Message layer on top of the RMA and RQ
// primitives, as in Section 5.1 of the paper: am_request and am_reply
// records are ENQ'd into per-process remote queues, and bulk transfers
// (am_store, am_get) combine a PUT with an ENQ of a completion handler that
// fires at the remote end once the data has landed.
package am

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
)

// Handler is an active-message handler. It runs on the destination process
// when the message is polled, with the sender's rank, the small argument
// words, and any payload bytes. args and payload are valid only until the
// handler returns: the port then reuses both, so a handler that keeps
// either must copy it.
type Handler func(p *Port, src int, args []int64, payload []byte)

// Layer is the cluster-wide active-message state: the handler table
// (identical on every rank, SPMD style) and one message queue per rank.
type Layer struct {
	f        *comm.Fabric
	handlers []Handler
	// taskHandlers parallels handlers: a handler id resolves to exactly
	// one of the two tables, depending on whether it was registered for
	// blocking-poll or run-to-completion dispatch (see task.go).
	taskHandlers []TaskHandler
	queues       []*memory.RQueue
	refs         []memory.QueueRef
	ports        []*Port
}

// enginePools holds the record buffers and send frames of every port
// whose node runs on one engine (sim.Pool), records in one free list per
// capacity class. A record is taken from the sender's engine pool and
// returned to the receiver's once consumed, so a pool stays in balance
// whenever its engine's traffic does — in a sequential run always, even
// under one-way flows (Sample's key exchange) that would drain one
// port's private pool into another's. A sharded run has one pool per
// shard engine, each touched only in its shard's event context.
type enginePools struct {
	recs [recordClasses][][]byte
	send sim.Freelist[sendFrame] // task-side send frames (task.go)
}

// New builds the layer over a fabric, allocating each rank's message queue
// and granting every rank permission to enqueue into it.
func New(f *comm.Fabric) *Layer {
	n := len(f.Cl.CPUs)
	l := &Layer{f: f, queues: f.Registry().NewQueues(n),
		refs: make([]memory.QueueRef, n), ports: make([]*Port, n)}
	ports := make([]Port, n) // one slab; l.ports points into it
	for rank, q := range l.queues {
		q.GrantWorld()
		l.refs[rank] = memory.QueueRef{Owner: rank, ID: q.ID}
		ep := f.Endpoint(rank)
		eng := ep.Node().Eng
		ports[rank] = Port{l: l, rank: rank, ep: ep, pools: sim.Pool[enginePools](eng)}
		l.ports[rank] = &ports[rank]
	}
	return l
}

// Register adds a handler to the table and returns its id. All handlers
// must be registered before communication starts.
func (l *Layer) Register(h Handler) int {
	l.handlers = append(l.handlers, h)
	l.taskHandlers = append(l.taskHandlers, nil)
	return len(l.handlers) - 1
}

// Port returns rank's active-message endpoint.
func (l *Layer) Port(rank int) *Port { return l.ports[rank] }

// Fabric returns the communication fabric the layer runs over.
func (l *Layer) Fabric() *comm.Fabric { return l.f }

// Ranks returns the number of ranks.
func (l *Layer) Ranks() int { return len(l.ports) }

// Port is one process's handle on the active-message layer.
type Port struct {
	l    *Layer
	rank int
	ep   *comm.Endpoint

	delivered int64 // messages dispatched on this port

	// pools are the record and send-frame pools of the engine the
	// port's node runs on. A port sends and consumes only in its own
	// node's event context, so a parallel run's shards never share a
	// pool.
	pools *enginePools
	// argFree holds decode scratch for the blocking dispatch path. A
	// dispatch takes a slice and returns it when its handler returns, so
	// a handler that polls again (a nested dispatch) decodes into another.
	argFree [][]int64
}

// Rank returns the port's rank.
func (p *Port) Rank() int { return p.rank }

// Endpoint returns the underlying communication endpoint.
func (p *Port) Endpoint() *comm.Endpoint { return p.ep }

// Delivered returns the number of messages dispatched on this port.
func (p *Port) Delivered() int64 { return p.delivered }

// message wire format: handler id (4 bytes), source rank (4), arg count
// (4), args (8 each), payload (rest).
const msgHeader = 12

// encodeInto marshals a record into buf, which must hold exactly
// RecordBytes(len(args), len(payload)) bytes.
func encodeInto(buf []byte, handler, src int, args []int64, payload []byte) []byte {
	binary.LittleEndian.PutUint32(buf[0:], uint32(handler))
	binary.LittleEndian.PutUint32(buf[4:], uint32(src))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(args)))
	for i, a := range args {
		binary.LittleEndian.PutUint64(buf[msgHeader+8*i:], uint64(a))
	}
	copy(buf[msgHeader+8*len(args):], payload)
	return buf
}

// decodeInto is decode with the argument words appended to buf[:0], so a
// caller that owns a scratch slice decodes without allocating.
func decodeInto(rec []byte, buf []int64) (handler, src int, args []int64, payload []byte) {
	handler = int(binary.LittleEndian.Uint32(rec[0:]))
	src = int(binary.LittleEndian.Uint32(rec[4:]))
	nargs := int(binary.LittleEndian.Uint32(rec[8:]))
	args = buf[:0]
	if cap(args) < nargs {
		args = make([]int64, nargs)
	}
	args = args[:nargs]
	for i := range args {
		args[i] = int64(binary.LittleEndian.Uint64(rec[msgHeader+8*i:]))
	}
	payload = rec[msgHeader+8*nargs:]
	return
}

// Request sends an active message to dst. Self-sends dispatch locally.
func (p *Port) Request(dst, handler int, args ...int64) {
	p.Send(dst, handler, args, nil)
}

// Reply is Request under its traditional name for use inside handlers.
func (p *Port) Reply(dst, handler int, args ...int64) {
	p.Send(dst, handler, args, nil)
}

// Send sends an active message with both argument words and a payload.
func (p *Port) Send(dst, handler int, args []int64, payload []byte) {
	if handler < 0 || handler >= len(p.l.handlers) {
		panic(fmt.Sprintf("am: rank %d sends unknown handler %d", p.rank, handler))
	}
	// Marshal the request record (touches a fresh buffer line).
	a := &p.l.f.A
	p.ep.Compute(a.Instr(1.5) + a.CacheMiss)
	rec := encodeInto(p.newRecord(RecordBytes(len(args), len(payload))), handler, p.rank, args, payload)
	if dst == p.rank {
		// Local delivery still goes through the message queue: handlers
		// must never run nested inside the sender (a handler that sends to
		// itself would otherwise observe half-completed state — the
		// classic active-message atomicity rule).
		p.ep.Compute(a.CacheMiss)
		p.l.queues[p.rank].Deliver(rec)
		return
	}
	if err := p.ep.EnqBytes(rec, p.l.refs[dst], memory.FlagRef{}); err != nil {
		panic(fmt.Sprintf("am: rank %d -> %d: %v", p.rank, dst, err))
	}
}

// Store performs an active-message bulk store (am_store): PUT the data into
// the destination's memory, then ENQ a completion message that invokes
// handler at dst once the data has landed. The PUT's rsync and the
// completion message ride the same FIFO channel, so the handler observes
// the deposited data.
func (p *Port) Store(dst int, local, remote memory.Addr, n int, handler int, args ...int64) {
	if err := p.ep.Put(local, remote, n, memory.FlagRef{}, memory.FlagRef{}); err != nil {
		panic(fmt.Sprintf("am: store rank %d -> %d: %v", p.rank, dst, err))
	}
	p.Send(dst, handler, args, nil)
}

// Pending returns the number of records waiting in the port's message
// queue — the depth a newly dispatched request found behind itself.
func (p *Port) Pending() int { return p.l.queues[p.rank].Len() }

// RecordBytes returns the wire size of an active-message record with
// nargs argument words and payload bytes: the AM header plus args plus
// payload. The network adds comm.HeaderSize per packet on top.
func RecordBytes(nargs, payload int) int { return msgHeader + 8*nargs + payload }

// Poll dispatches one pending message, if any. Returns whether a message
// was processed.
func (p *Port) Poll() bool {
	rec, ok := p.ep.TryRecv(p.l.queues[p.rank])
	if !ok {
		return false
	}
	p.ep.Compute(p.signalCost())
	p.consume(rec)
	return true
}

// signalCost is the per-wakeup kernel signal delivered to an unbatched
// receiver under SW; batched drains (PollAll) pay it once in DrainStart.
func (p *Port) signalCost() sim.Time {
	a := &p.l.f.A
	if a.Kind == arch.Syscall {
		return a.InterruptOvh
	}
	return 0
}

// PollAll dispatches all pending messages and returns how many ran. The
// drain is batched: the per-batch receive cost (a kernel crossing under
// SW) is paid once, then each record costs only its cache misses.
func (p *Port) PollAll() int {
	q := p.l.queues[p.rank]
	if !p.ep.DrainStart(q) {
		return 0
	}
	n := 0
	for {
		rec, ok := p.ep.TryRecvBatched(q)
		if !ok {
			return n
		}
		p.consume(rec)
		n++
	}
}

// ServeOne blocks until a message arrives and dispatches it.
func (p *Port) ServeOne() {
	rec := p.ep.Recv(p.l.queues[p.rank])
	p.ep.Compute(p.signalCost())
	p.consume(rec)
}

// WaitUntil serves messages until cond becomes true. cond is checked after
// every dispatched message (handlers are the only thing that can change
// the condition while the process is blocked here).
func (p *Port) WaitUntil(cond func() bool) {
	for !cond() {
		p.ServeOne()
	}
}

// consume decodes a received record into scratch of its own, dispatches
// it, and recycles the record and the scratch once the handler returns.
func (p *Port) consume(rec []byte) {
	var buf []int64
	if k := len(p.argFree); k > 0 {
		buf = p.argFree[k-1]
		p.argFree = p.argFree[:k-1]
	}
	h, src, args, payload := decodeInto(rec, buf)
	p.dispatch(h, src, args, payload)
	p.argFree = append(p.argFree, args)
	p.freeRecord(rec)
}

func (p *Port) dispatch(handler, src int, args []int64, payload []byte) {
	// Decode the record, walk the handler table, and set up the handler
	// frame: the queue-pop misses were charged by Recv; this is the rest
	// of the handler-invocation cost the paper's AM latency includes
	// (latencies are higher than PUT/GET "because it involves handler
	// invocation on processors at both ends").
	a := &p.l.f.A
	n := msgHeader + 8*len(args) + len(payload)
	p.ep.Compute(a.Instr(2.0) + 2*a.CacheMiss + arch.XferTime(n, a.PIOBW))
	p.delivered++
	h := p.l.handlers[handler]
	if h == nil {
		panic(fmt.Sprintf("am: handler %d is task-registered; it cannot run from a blocking poll", handler))
	}
	h(p, src, args, payload)
}

// F2I and I2F pass float64 argument words through int64 argument slots.
func F2I(x float64) int64 { return int64(math.Float64bits(x)) }

// I2F recovers a float64 from an argument word.
func I2F(x int64) float64 { return math.Float64frombits(uint64(x)) }

// Record buffers come in power-of-two capacity classes from recordCap to
// maxRecordCap: a record is built in the smallest class that holds it and
// recycles through that class's free list. Every application and KV
// request fits the first class; a SCAN reply (16 64-byte values plus
// header, about 1.1 KB) takes the 2 KiB class. Records above
// maxRecordCap (bulk payloads) are allocated to size and left to the
// collector.
const (
	recordCap     = 128
	recordClasses = 6
	maxRecordCap  = recordCap << (recordClasses - 1) // 4 KiB
)

// maxFreeRecords bounds each class of each engine's record pool. In a
// sequential run a class never holds more records than were in flight at
// once, but that can be thousands (Sample's receivers drain their queues
// in bursts), and a sharded run's flows between shards need not balance
// at all (a server shard receives SCAN requests in the first class and
// returns replies in the 2 KiB one), so the bound keeps a class from
// holding a burst's worth of buffers for the rest of the run.
const maxFreeRecords = 1024

// recordClass returns the index of the smallest class holding n bytes,
// or -1 when n exceeds maxRecordCap.
func recordClass(n int) int {
	if n <= recordCap {
		return 0
	}
	if n > maxRecordCap {
		return -1
	}
	return bits.Len(uint(n-1)) - bits.Len(recordCap-1)
}

// newRecord returns an n-byte record buffer, from the engine's pool when
// n fits a class.
func (p *Port) newRecord(n int) []byte {
	c := recordClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	free := p.pools.recs[c]
	if k := len(free); k > 0 {
		rec := free[k-1][:n]
		free[k-1] = nil
		p.pools.recs[c] = free[:k-1]
		return rec
	}
	return make([]byte, n, recordCap<<c)
}

// freeRecord returns a consumed record to the engine's pool. A record is
// recycled only when the fabric delivers exactly once: a duplicated
// packet would otherwise deliver a buffer already reused.
func (p *Port) freeRecord(rec []byte) {
	c := recordClass(cap(rec))
	if c < 0 || cap(rec) != recordCap<<c || !p.l.f.ExactlyOnce() {
		return
	}
	if free := p.pools.recs[c]; len(free) < maxFreeRecords {
		p.pools.recs[c] = append(free, rec)
	}
}
