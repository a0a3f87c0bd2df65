// Package span stitches the simulator's flat trace stream into
// per-message lifecycle spans: one Span per RMA/RQ operation, decomposed
// into the named phases of the paper's Table 2 critical path (sender
// overhead, command-queue wait, agent service, wire, input-FIFO wait,
// delivery). The Assembler is a trace.Tracer, so it consumes the existing
// fan-out — zero new emit sites — and reconstructs attribution purely
// from event order and the engine's context-switch events:
//
//	KOpSubmit            the issuing process opens a span
//	KEnqueue  (user ctx) the command reached a queue feeding the agent:
//	                     the per-user command queue ("rank<N>.cmdq") under
//	                     the proxy design points, the agent's work queue
//	                     ("<agent>.q") otherwise
//	KPoll                the agent picked a work item up
//	KDequeue  (.cmdq)    the proxy's scan drained a specific command queue;
//	                     the span that queue carries binds to the running
//	                     work item (queue wait ends)
//	KSchedule/KFire      a packet launched during service crosses the wire
//	KEnqueue  (eng ctx)  the delivery reached the receiving agent's queue
//	KOpDone              the data deposited; the span closes
//
// The command-queue events exist because proxy work tokens are fungible:
// the agent work item submitted for one endpoint's command may service a
// different endpoint's queue (the scan is round-robin across the node's
// registered queues). Pairing spans with work items in FIFO order would
// cross identities whenever two endpoints on a node have commands in
// flight; riding the span on the command queue itself keeps attribution
// exact.
//
// Phase boundaries chain through a per-span monotone mark, so the phase
// durations of every span sum exactly to Done-Submit — the assembler
// never loses or double-counts time, even when it cannot attribute a
// boundary (the residual lands in the enclosing phase and the span is
// flagged Approx). Serialized request/response traffic (the Table 4
// micro-benchmark shape) attributes exactly; pipelined DMA pages and
// system-call kernel chains degrade gracefully to coarser phases.
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

// Span is one operation's reconstructed lifecycle.
type Span struct {
	ID     int
	Run    int // engine segment (0, 1, ... as drivers build fresh engines)
	Op     string
	Bytes  int64
	Origin string // issuing process
	Submit int64  // nanoseconds
	Done   int64
	// Latency is the one-way latency KOpDone reported (== Done-Submit
	// unless the submit event predates the tracer).
	Latency int64
	// Complete marks spans that reached KOpDone before the run ended.
	Complete bool
	// Approx marks spans with at least one fallback-attributed or
	// clamped boundary (overlapping DMA pages, kernel chains).
	Approx bool
	// Intra marks same-node shared-memory operations.
	Intra bool
	// Route lists the agents that serviced the span's work items, in
	// pickup order.
	Route []string
	// Probes and HeadChecks total the command-queue scan work observed
	// during this span's agent service (KScan attribution).
	Probes     int64
	HeadChecks int64
	Intervals  []Interval

	mark    int64 // end of the last recorded interval
	engHops int   // network deliveries attributed so far
	closed  bool
}

// phase appends an interval [mark, to] of phase p. A boundary earlier
// than the mark (overlapped pipeline stages) clamps to zero length and
// flags the span approximate; the mark never moves backward, so the
// intervals always tile [Submit, Done] exactly.
func (s *Span) phase(p Phase, where string, to int64) {
	if s.closed {
		return
	}
	from := s.mark
	if to < from {
		s.Approx = true
		to = from
	}
	s.Intervals = append(s.Intervals, Interval{Phase: p, Where: where, Hop: s.engHops, From: from, To: to})
	s.mark = to
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
// Consecutive visits to the same agent (a multi-packet DMA stream lands
// one hop per page on the receiving proxy) collapse to one entry, so
// flows group by path rather than by packet count. Same-node operations
// report the shared-memory fast path.
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
	if s.Approx {
		b.WriteString("  [approx]")
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

// Stats counts the assembler's attribution quality. Unattributed items
// and orphan completions measure how much of the stream fell back to
// heuristics (zero on the serialized micro-benchmark scenarios).
type Stats struct {
	Spans             int `json:"spans"`
	Completed         int `json:"completed"`
	Approximate       int `json:"approximate"`
	Intra             int `json:"intra"`
	LatencyMismatches int `json:"latency_mismatches"`
	UnattributedItems int `json:"unattributed_items"`
	FallbackDone      int `json:"fallback_done"`
	OrphanDone        int `json:"orphan_done"`
	FifoDesyncs       int `json:"fifo_desyncs"`
	Runs              int `json:"runs"`
}

// workItem mirrors one entry of an agent's work queue.
type workItem struct {
	span  *Span
	enqAt int64
	// send marks a user command submission (phase boundary: command-queue
	// wait); network delivery hops wait in the input FIFO instead.
	send bool
	// deqReq marks the first delivery hop of a DEQ: its service parks the
	// span until the remote queue produces a record.
	deqReq bool
	// probes and headChecks stash scan work observed before the item bound
	// a span (proxy tokens bind at the command-queue dequeue, which the
	// scan itself precedes); the rebind transfers them to the span.
	probes, headChecks int64
}

// schedInfo remembers who created an engine event, so the packet-flight
// schedules a service launches can carry span attribution to the delivery.
type schedInfo struct {
	at      int64 // creation time (= packet launch time for wire events)
	span    *Span
	creator string
	// fromUser marks schedules created by a user process with a pending
	// submission — under SW these are the wire flights themselves.
	fromUser bool
	owner    string
}

// Assembler reconstructs spans from a trace stream. It is a trace.Tracer;
// install it alongside other tracers via trace.Multi. Like the metrics
// collector it is not safe for concurrent engines.
type Assembler struct {
	spans []*Span
	stats Stats

	cur       string // running process ("" = engine context)
	pending   map[string]*Span
	scheds    map[uint64]schedInfo
	curFire   schedInfo
	tent      schedInfo // fromUser fire awaiting wire-vs-resume resolution
	tentAt    int64
	haveTent  bool
	qfifo     map[string][]*workItem // per-agent work-queue mirror
	ready     map[string]*workItem   // dequeued, awaiting KPoll
	active    map[string]*workItem   // in service
	cmdq      map[string][]*Span     // per-command-queue span FIFO (proxy)
	owed      map[string]int         // user procs whose span rode the cmdq
	dormant   []*Span                // DEQ spans parked on empty remote queues
	openByOp  map[string][]*Span
	lastAt    int64
	curRun    int
	runActive bool
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	a := &Assembler{}
	a.resetRun()
	return a
}

func (a *Assembler) resetRun() {
	a.cur = ""
	a.pending = make(map[string]*Span)
	a.scheds = make(map[uint64]schedInfo)
	a.curFire = schedInfo{}
	a.haveTent = false
	a.qfifo = make(map[string][]*workItem)
	a.ready = make(map[string]*workItem)
	a.active = make(map[string]*workItem)
	a.cmdq = make(map[string][]*Span)
	a.owed = make(map[string]int)
	a.dormant = nil
	a.openByOp = make(map[string][]*Span)
}

// Spans returns every span opened so far, in submission order.
func (a *Assembler) Spans() []*Span { return a.spans }

// CompleteSpans returns the spans that reached KOpDone.
func (a *Assembler) CompleteSpans() []*Span {
	out := make([]*Span, 0, a.stats.Completed)
	for _, s := range a.spans {
		if s.Complete {
			out = append(out, s)
		}
	}
	return out
}

// Stats returns attribution-quality counters.
func (a *Assembler) Stats() Stats {
	st := a.stats
	if a.runActive {
		st.Runs = a.curRun + 1
	}
	return st
}

// agentOf maps an agent work-queue trace name to its agent, following the
// machine.NewAgent contract that agent queues are named "<agent>.q" (the
// only named sim.FIFOs in the tree). Command-queue components
// ("rank<N>.cmdq") do not match: their suffix is ".cmdq", not ".q".
func agentOf(comp string) (string, bool) {
	return strings.CutSuffix(comp, ".q")
}

// isCmdq reports whether comp names a per-user command queue, following
// the comm fabric contract that they are named "rank<N>.cmdq".
func isCmdq(comp string) bool {
	return strings.HasSuffix(comp, ".cmdq")
}

// Record implements trace.Tracer.
func (a *Assembler) Record(ev trace.Event) {
	if ev.At < a.lastAt {
		// Time ran backwards: the driver built a fresh engine. In-flight
		// state is per-engine; open spans stay incomplete.
		a.curRun++
		a.resetRun()
	}
	a.lastAt = ev.At
	a.runActive = true
	if a.haveTent {
		// A user-context schedule fired as the previous event. If the
		// process merely resumed (a Hold or a flag wake), this event is
		// its KUnpark; anything else means the schedule was a packet
		// flight launched inline from user context (the SW send path).
		if ev.Kind == trace.KUnpark {
			a.haveTent = false
		} else {
			a.commitTent()
		}
	}
	switch ev.Kind {
	case trace.KSchedule:
		si := schedInfo{at: ev.At, creator: a.cur}
		if a.cur == "" {
			si.span = a.curFire.span
		} else if item := a.active[a.cur]; item != nil {
			si.span = item.span
		} else if sp := a.pending[a.cur]; sp != nil {
			si.span = sp
			si.fromUser = true
			si.owner = a.cur
		}
		if si.span != nil {
			a.scheds[ev.Seq] = si
		}
	case trace.KFire:
		a.cur = ""
		a.curFire = a.scheds[ev.Seq]
		delete(a.scheds, ev.Seq)
		if a.curFire.fromUser && a.curFire.span != nil && !a.curFire.span.closed {
			a.tent = a.curFire
			a.tentAt = ev.At
			a.haveTent = true
		}
	case trace.KSpawn, trace.KUnpark:
		a.cur = ev.Comp
	case trace.KPark, trace.KProcEnd:
		a.cur = ""
	case trace.KOpSubmit:
		sp := &Span{
			ID: len(a.spans), Run: a.curRun, Op: ev.Comp, Bytes: ev.Arg,
			Origin: a.cur, Submit: ev.At, mark: ev.At,
		}
		a.spans = append(a.spans, sp)
		a.stats.Spans++
		if a.cur != "" {
			a.pending[a.cur] = sp
		}
		a.openByOp[sp.Op] = append(a.openByOp[sp.Op], sp)
	case trace.KEnqueue:
		if isCmdq(ev.Comp) {
			a.onCmdqEnqueue(ev)
			return
		}
		a.onEnqueue(ev)
	case trace.KDequeue:
		if isCmdq(ev.Comp) {
			a.onCmdqDequeue(ev)
			return
		}
		agent, ok := agentOf(ev.Comp)
		if !ok {
			return
		}
		delete(a.active, agent)
		if fifo := a.qfifo[agent]; len(fifo) > 0 {
			a.ready[agent] = fifo[0]
			a.qfifo[agent] = fifo[1:]
		} else {
			delete(a.ready, agent)
			a.stats.FifoDesyncs++
		}
	case trace.KPoll:
		agent := ev.Comp
		item := a.ready[agent]
		delete(a.ready, agent)
		if item == nil {
			a.stats.FifoDesyncs++
			return
		}
		a.active[agent] = item
		sp := item.span
		if sp == nil || sp.closed {
			return
		}
		sp.Route = append(sp.Route, agent)
		if item.send {
			sp.phase(PhaseCmdQueue, agent+".q", ev.At)
		} else {
			sp.phase(PhaseInputQueue, agent+".q", ev.At)
		}
		if item.deqReq {
			a.dormant = append(a.dormant, sp)
		}
	case trace.KScan:
		agent := strings.TrimSuffix(ev.Comp, ".scan")
		if item := a.active[agent]; item != nil {
			s := trace.DecodeScanArg(ev.Arg)
			if sp := item.span; sp != nil {
				if !sp.closed {
					sp.Probes += s.Probes
					sp.HeadChecks += s.HeadChecks
				}
			} else {
				// The scan precedes the command-queue dequeue that binds
				// this item's span; stash until the rebind.
				item.probes += s.Probes
				item.headChecks += s.HeadChecks
			}
		}
	case trace.KOpDone:
		a.onDone(ev)
	}
}

// onEnqueue mirrors a put to an agent work queue and attributes it.
func (a *Assembler) onEnqueue(ev trace.Event) {
	agent, ok := agentOf(ev.Comp)
	if !ok {
		return
	}
	item := &workItem{enqAt: ev.At}
	switch {
	case a.cur == "":
		// Engine context: a packet delivery scheduled by some earlier
		// service (or a shutdown pill / retransmission, which stay
		// unattributed). The firing schedule carries the span and the
		// launch instant, splitting service time from wire time.
		if sp := a.curFire.span; sp != nil && !sp.closed {
			item.span = sp
			sp.phase(PhaseService, a.curFire.creator, a.curFire.at)
			sp.phase(PhaseWire, "wire", ev.At)
			sp.engHops++
			if sp.Op == "DEQ" && sp.engHops == 1 {
				item.deqReq = true
			}
		} else {
			a.stats.UnattributedItems++
		}
	case a.active[a.cur] != nil:
		// Agent context mid-service: the only agent-side submissions are
		// DEQ replies materializing from a remote queue's TakeAsync.
		if len(a.dormant) > 0 {
			sp := a.dormant[0]
			a.dormant = a.dormant[1:]
			if !sp.closed {
				item.span = sp
				sp.phase(PhaseRQWait, ev.Comp, ev.At)
			}
		} else {
			a.stats.UnattributedItems++
		}
	case a.pending[a.cur] != nil:
		// User context: the submitted command reached the agent's queue.
		sp := a.pending[a.cur]
		delete(a.pending, a.cur)
		if !sp.closed {
			item.span = sp
			item.send = true
			sp.phase(PhaseSubmit, sp.Origin, ev.At)
		}
	case a.owed[a.cur] > 0:
		// Proxy notification token: the span already rode the command
		// queue at onCmdqEnqueue; this work item stays span-less until
		// the scan's dequeue binds whichever span it actually drains.
		a.owed[a.cur]--
	default:
		a.stats.UnattributedItems++
	}
	a.qfifo[agent] = append(a.qfifo[agent], item)
}

// onCmdqEnqueue records a user command entering its per-user command
// queue under the proxy design points: the submit phase ends here, and
// the span rides the command queue — not the agent work token — so the
// round-robin scan's pick binds the right identity.
func (a *Assembler) onCmdqEnqueue(ev trace.Event) {
	if a.cur == "" {
		a.cmdq[ev.Comp] = append(a.cmdq[ev.Comp], nil)
		a.stats.UnattributedItems++
		return
	}
	a.owed[a.cur]++
	sp := a.pending[a.cur]
	if sp != nil {
		delete(a.pending, a.cur)
		sp.phase(PhaseSubmit, sp.Origin, ev.At)
	} else {
		a.stats.UnattributedItems++
	}
	a.cmdq[ev.Comp] = append(a.cmdq[ev.Comp], sp)
}

// onCmdqDequeue binds the oldest span waiting in the drained command
// queue to the agent work item currently in service: command-queue wait
// ends, and the rest of the item's service attributes to this span.
func (a *Assembler) onCmdqDequeue(ev trace.Event) {
	fifo := a.cmdq[ev.Comp]
	if len(fifo) == 0 {
		a.stats.FifoDesyncs++
		return
	}
	sp := fifo[0]
	a.cmdq[ev.Comp] = fifo[1:]
	item := a.active[a.cur]
	if item == nil {
		a.stats.FifoDesyncs++
		return
	}
	item.span = sp
	if sp == nil || sp.closed {
		return
	}
	sp.Route = append(sp.Route, a.cur)
	sp.phase(PhaseCmdQueue, a.cur+".q", ev.At)
	sp.Probes += item.probes
	sp.HeadChecks += item.headChecks
	item.probes, item.headChecks = 0, 0
}

// commitTent resolves a user-context schedule as a wire flight: under the
// system-call architecture the kernel send runs inline on the user's
// processor and ships directly, so the span's submit phase ends at the
// launch and the flight time is wire.
func (a *Assembler) commitTent() {
	a.haveTent = false
	t := a.tent
	if t.owner != "" && a.pending[t.owner] == t.span {
		delete(a.pending, t.owner)
	}
	sp := t.span
	if sp == nil || sp.closed {
		return
	}
	sp.phase(PhaseSubmit, t.creator, t.at)
	sp.phase(PhaseWire, "wire", a.tentAt)
	sp.engHops++
}

// onDone closes the span a KOpDone belongs to. Resolution order: the
// serving agent's active item, the issuing user's pending submission
// (intra-node fast path), the firing schedule's span (system-call kernel
// chains), then the oldest open span of the operation kind.
func (a *Assembler) onDone(ev trace.Event) {
	var sp *Span
	intra := false
	if a.cur != "" {
		if item := a.active[a.cur]; item != nil && item.span != nil &&
			!item.span.closed && item.span.Op == ev.Comp {
			sp = item.span
		} else if p := a.pending[a.cur]; p != nil && !p.closed && p.Op == ev.Comp {
			sp = p
			intra = true
			delete(a.pending, a.cur)
		}
	} else if p := a.curFire.span; p != nil && !p.closed && p.Op == ev.Comp {
		sp = p
	}
	if sp == nil {
		open := a.openByOp[ev.Comp]
		for len(open) > 0 && open[0].closed {
			open = open[1:]
		}
		a.openByOp[ev.Comp] = open
		if len(open) > 0 {
			sp = open[0]
			sp.Approx = true
			a.stats.FallbackDone++
		}
	}
	if sp == nil {
		a.stats.OrphanDone++
		return
	}
	where := a.cur
	if where == "" {
		where = "engine"
	}
	if intra {
		sp.Intra = true
		a.stats.Intra++
		sp.phase(PhaseIntra, where, ev.At)
	} else {
		sp.phase(PhaseDeliver, where, ev.At)
	}
	sp.Done = ev.At
	sp.Latency = ev.Arg
	sp.Complete = true
	sp.closed = true
	a.stats.Completed++
	if sp.Approx {
		a.stats.Approximate++
	}
	if sp.Done-sp.Submit != sp.Latency {
		a.stats.LatencyMismatches++
	}
}
