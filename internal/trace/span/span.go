// Package span records per-message lifecycle spans: one Span per RMA/RQ
// operation, decomposed into the phases of the paper's Table 2 critical
// path (sender overhead, command-queue wait, agent service, wire,
// input-FIFO wait, delivery).
//
// Every operation carries an explicit span ID: comm.Endpoint opens the
// span at submission and the ID rides the request through the command
// queue and agent frame into every packet built from it. The
// communication fabric marks each phase boundary where it executes it:
//
//	Enqueued  the command reached the proxy's command queue or the
//	          adapter's work queue: submit ends
//	Picked    an agent took the command (from the scan pass that dequeued
//	          it, with that pass's probes) or a packet: cmdq-wait or
//	          input-queue ends
//	Launched  the first packet left: agent-service ends, or submit under
//	          the system-call design point, whose kernel sends inline
//	Arrived   the packet reached the destination node: wire ends
//	Taken     a DEQ's remote queue produced its record: rq-wait ends
//	Done      the data deposited: deliver (or intra) ends
//
// Each mark reads the engine clock when the fabric executes it, so the
// boundaries are monotone by construction and the phases tile [Submit,
// Done] exactly. A span's state decides which marks advance it; the rest
// are ignored. So a multi-page transfer marks its first page's service,
// wire and input-queue boundaries and delivers at the last deposit, a
// duplicated or retransmitted packet marks nothing, and a system-call
// reply launched from interrupt context stays in deliver.
//
// The ID is not on trace.Event: the events that coincide with the
// boundaries come from generic layers (sim.FIFO, machine.Agent, the
// links' schedules) that cannot know the operation. Recording spans
// leaves the event stream and every trace digest unchanged.
package span

import (
	"fmt"
	"strings"

	"mproxy/internal/trace"
)

// Phase names one segment of a message's lifecycle. The mapping to the
// paper's Table 2 terms:
//
//	PhaseSubmit     user enqueues the command (2 misses + instr)
//	PhaseCmdQueue   polling delay P + queueing until the proxy's scan
//	                reaches the command queue (zero for custom hardware)
//	PhaseService    agent occupancy building/launching packets: decode,
//	                vm_att, header setup, source read, PIO/DMA feed
//	PhaseWire       link serialization + network transit L, per hop
//	PhaseInputQueue polling delay P + queueing at the receiving agent's
//	                network input FIFO
//	PhaseRQWait     DEQ only: waiting for a record to arrive in the
//	                remote queue (includes the request's service time)
//	PhaseDeliver    receive-side handler up to data deposit: header read,
//	                vm_att, payload read, copy to destination
//	PhaseIntra      same-node shared-memory fast path (whole operation)
type Phase uint8

const (
	PhaseSubmit Phase = iota
	PhaseCmdQueue
	PhaseService
	PhaseWire
	PhaseInputQueue
	PhaseRQWait
	PhaseDeliver
	PhaseIntra
	// NumPhases is the number of phases.
	NumPhases = int(PhaseIntra) + 1
)

var phaseNames = [NumPhases]string{
	"submit", "cmdq-wait", "agent-service", "wire", "input-queue",
	"rq-wait", "deliver", "intra",
}

func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// Interval is one contiguous slice of a span's lifetime attributed to a
// phase. Intervals chain: each starts where the previous ended.
type Interval struct {
	Phase Phase
	// Where names the component the time was spent at: the issuing
	// process, an agent or its work queue, or "wire".
	Where string
	// Hop counts network deliveries completed when the interval was
	// recorded (0 = before the first hop).
	Hop      int
	From, To int64 // nanoseconds
}

// Dur returns the interval length in nanoseconds.
func (iv Interval) Dur() int64 { return iv.To - iv.From }

// Span is one operation's recorded lifecycle.
type Span struct {
	ID     int
	Run    int // engine segment (0, 1, ... as drivers build fresh engines)
	Op     string
	Bytes  int64
	Origin string // issuing process
	Submit int64  // nanoseconds
	Done   int64
	// Latency is the one-way latency, submission to data deposit
	// (== Done-Submit).
	Latency int64
	// Complete marks spans that completed before the run ended.
	Complete bool
	// Intra marks same-node shared-memory operations.
	Intra bool
	// Route lists the agents that picked the operation up, in pickup
	// order.
	Route []string
	// Probes and HeadChecks total the command-queue scan work of the
	// passes that dequeued the operation's command.
	Probes     int64
	HeadChecks int64
	Intervals  []Interval

	mark  int64 // end of the last recorded interval
	hops  int   // arrivals marked so far
	state state
	wait  Phase // the phase the next pickup closes (state queued)
}

// state is where a span stands in its lifecycle; it decides which marks
// advance the span.
type state uint8

const (
	open    state = iota // submitted, not yet queued or launched
	queued               // waiting for an agent's pickup
	service              // an agent is serving it
	flight               // a packet is on the wire
	closed               // done
)

// phase appends the interval [mark, now] of phase p.
func (s *Span) phase(p Phase, where string, now int64) {
	s.Intervals = append(s.Intervals, Interval{Phase: p, Where: where, Hop: s.hops, From: s.mark, To: now})
	s.mark = now
}

// PhaseTotal returns the span's total time in phase p across all hops.
func (s *Span) PhaseTotal(p Phase) int64 {
	var t int64
	for _, iv := range s.Intervals {
		if iv.Phase == p {
			t += iv.Dur()
		}
	}
	return t
}

// HasPhase reports whether any interval of phase p was recorded.
func (s *Span) HasPhase(p Phase) bool {
	for _, iv := range s.Intervals {
		if iv.Phase == p {
			return true
		}
	}
	return false
}

// Total returns the sum of all interval durations. For a complete span it
// equals Done-Submit exactly.
func (s *Span) Total() int64 {
	var t int64
	for _, iv := range s.Intervals {
		t += iv.Dur()
	}
	return t
}

// Flow identifies the span's path: origin process and the agents visited.
// Consecutive visits to the same agent (a DEQ's request and reply on the
// remote proxy) collapse to one entry, so flows group by path. Same-node
// operations report the shared-memory fast path.
func (s *Span) Flow() string {
	if s.Intra {
		return s.Origin + ">intra"
	}
	hops := []string{s.Origin}
	for _, r := range s.Route {
		if r != hops[len(hops)-1] {
			hops = append(hops, r)
		}
	}
	return strings.Join(hops, ">")
}

// Report renders the span's critical path as one line per interval — the
// per-message "where did the time go" answer.
func (s *Span) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "span %d run %d: %s %dB %s", s.ID, s.Run, s.Op, s.Bytes, s.Flow())
	if s.Complete {
		fmt.Fprintf(&b, "  latency %.3fus", float64(s.Latency)/1e3)
	} else {
		b.WriteString("  (incomplete)")
	}
	b.WriteByte('\n')
	for _, iv := range s.Intervals {
		fmt.Fprintf(&b, "  %10.3fus .. %10.3fus  %-13s %8.3fus  hop %d  %s\n",
			float64(iv.From)/1e3, float64(iv.To)/1e3, iv.Phase.String(),
			float64(iv.Dur())/1e3, iv.Hop, iv.Where)
	}
	if s.Probes > 0 || s.HeadChecks > 0 {
		fmt.Fprintf(&b, "  scan work during service: %d probes, %d head checks\n",
			s.Probes, s.HeadChecks)
	}
	return b.String()
}

// Stats counts what a recorder holds.
type Stats struct {
	Spans     int `json:"spans"`
	Completed int `json:"completed"`
	Intra     int `json:"intra"`
	Runs      int `json:"runs"`
}

// Recorder collects the spans of every fabric built on an engine it is
// installed on. It takes its marks from the fabric, not from the event
// stream: it is a trace.Tracer only so that it installs like every other
// collector, through trace.Multi, and comm.NewWith finds it among the
// engine's tracers (see Attach). Like the metrics collector it is not
// safe for concurrent engines.
type Recorder struct {
	spans []*Span
	runs  int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record implements trace.Tracer; events carry no span marks.
func (r *Recorder) Record(trace.Event) {}

// Spans returns every span opened so far, in submission order.
func (r *Recorder) Spans() []*Span { return r.spans }

// CompleteSpans returns the spans that completed.
func (r *Recorder) CompleteSpans() []*Span {
	var out []*Span
	for _, s := range r.spans {
		if s.Complete {
			out = append(out, s)
		}
	}
	return out
}

// Stats returns the recorder's counts.
func (r *Recorder) Stats() Stats {
	st := Stats{Spans: len(r.spans), Runs: r.runs}
	for _, s := range r.spans {
		if s.Complete {
			st.Completed++
		}
		if s.Intra {
			st.Intra++
		}
	}
	return st
}

// Run is one fabric's handle on the recorders its engine's tracer
// delivers to: normally one, two when a driver nests another's tracer.
// Span IDs are local to the run: ID k names the k-th operation opened
// through it; 0 names none, and marks on it are ignored.
type Run struct {
	now  func() int64
	recs []*Recorder
	runs []int     // each recorder's number for this run
	byID [][]*Span // per ID, the span in each recorder

	// names and queues hold the run's copies of the component names its
	// spans keep, and of each agent's queue name: a cluster's names share
	// one arena (package names), which the recorders must not keep alive.
	names, queues map[string]string
}

// keep returns the run's copy of name.
func (u *Run) keep(name string) string {
	if c, ok := u.names[name]; ok {
		return c
	}
	c := strings.Clone(name)
	u.names[c] = c
	return c
}

// queue returns the run's copy of agent's work-queue name.
func (u *Run) queue(agent string) string {
	if q, ok := u.queues[agent]; ok {
		return q
	}
	q := agent + ".q"
	u.queues[u.keep(agent)] = q
	return q
}

// Attach starts a run on every Recorder t delivers to, reading the clock
// through now, or returns nil when there is none (then the fabric's
// marks are single nil checks).
func Attach(t trace.Tracer, now func() int64) *Run {
	var u *Run
	trace.Each(t, func(t trace.Tracer) {
		if rec, ok := t.(*Recorder); ok {
			if u == nil {
				u = &Run{now: now, names: map[string]string{}, queues: map[string]string{}}
			}
			u.recs = append(u.recs, rec)
			u.runs = append(u.runs, rec.runs)
			rec.runs++
		}
	})
	return u
}

// spans returns the spans id names, one per recorder.
func (u *Run) spans(id uint32) []*Span {
	if id == 0 {
		return nil
	}
	return u.byID[id-1]
}

// Open opens the span of an operation submitted by origin and returns
// its ID.
func (u *Run) Open(op string, bytes int64, origin string) uint32 {
	now := u.now()
	origin = u.keep(origin)
	ss := make([]*Span, len(u.recs))
	for i, rec := range u.recs {
		ss[i] = &Span{
			ID: len(rec.spans), Run: u.runs[i], Op: op, Bytes: bytes,
			Origin: origin, Submit: now, mark: now,
		}
		rec.spans = append(rec.spans, ss[i])
	}
	u.byID = append(u.byID, ss)
	return uint32(len(u.byID))
}

// Enqueued marks the command reaching the queue its agent serves.
func (u *Run) Enqueued(id uint32) {
	now := u.now()
	for _, s := range u.spans(id) {
		if s.state == open {
			s.phase(PhaseSubmit, s.Origin, now)
			s.state, s.wait = queued, PhaseCmdQueue
		}
	}
}

// Picked marks agent picking the operation up, with the probes and head
// checks of the scan pass that found its command (zero for packets).
func (u *Run) Picked(id uint32, agent string, probes, headChecks int64) {
	now := u.now()
	for _, s := range u.spans(id) {
		if s.state == queued {
			s.Route = append(s.Route, u.keep(agent))
			s.phase(s.wait, u.queue(agent), now)
			s.Probes += probes
			s.HeadChecks += headChecks
			s.state = service
		}
	}
}

// Launched marks the operation's packet leaving: the serving agent's
// service ends, or, for an operation no agent picked up (the system-call
// kernel sends inline), its submission.
func (u *Run) Launched(id uint32) {
	now := u.now()
	for _, s := range u.spans(id) {
		switch s.state {
		case open:
			s.phase(PhaseSubmit, s.Origin, now)
			s.state = flight
		case service:
			s.phase(PhaseService, s.Route[len(s.Route)-1], now)
			s.state = flight
		}
	}
}

// Arrived marks the packet in flight reaching its destination node.
func (u *Run) Arrived(id uint32) {
	now := u.now()
	for _, s := range u.spans(id) {
		if s.state == flight {
			s.phase(PhaseWire, "wire", now)
			s.hops++
			s.state, s.wait = queued, PhaseInputQueue
		}
	}
}

// Taken marks a DEQ's remote queue producing the record, which then
// waits for agent's pickup.
func (u *Run) Taken(id uint32, agent string) {
	now := u.now()
	for _, s := range u.spans(id) {
		if s.state == service {
			s.phase(PhaseRQWait, u.queue(agent), now)
			s.state, s.wait = queued, PhaseInputQueue
		}
	}
}

// Done closes the span: where deposited the data. An operation that
// never left its origin completed through the node's shared memory, on
// the origin's processor.
func (u *Run) Done(id uint32, where string) {
	now := u.now()
	for _, s := range u.spans(id) {
		switch s.state {
		case closed:
			continue
		case open:
			s.Intra = true
			s.phase(PhaseIntra, s.Origin, now)
		default:
			s.phase(PhaseDeliver, u.keep(where), now)
		}
		s.Done, s.Latency, s.Complete, s.state = now, now-s.Submit, true, closed
	}
}
