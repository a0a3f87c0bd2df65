// Package trace defines the simulator's observability layer: a pluggable
// Tracer interface that receives one Event per interesting occurrence in
// the discrete-event engine (event scheduled/fired, process park/unpark,
// resource acquire/release, queue enqueue/dequeue, proxy poll iterations,
// RMA/RQ operation submit/complete) and a small set of Tracer
// implementations — an in-memory recorder, a streaming digest for
// golden-trace regression tests, a line writer, and a fan-out.
//
// The package is deliberately free of dependencies on the sim package so
// that sim can emit into it without an import cycle; simulated times cross
// the boundary as int64 nanoseconds.
//
// A nil Tracer costs one predicted branch on the hot path: emit sites are
// guarded by a nil check before the Event is even composed (benchmarked in
// internal/sim: BenchmarkNilTracer vs BenchmarkRecordingTracer).
package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// KSchedule: an event was pushed onto the engine's event heap.
	// Arg is the scheduling delay in nanoseconds.
	KSchedule Kind = iota
	// KFire: a scheduled event reached the head of the heap and its
	// callback is about to run. Seq is the event's insertion sequence.
	KFire
	// KSpawn: a simulated process was created. Comp is the process name.
	KSpawn
	// KPark: a process handed control back to the engine. Comp is the
	// process name.
	KPark
	// KUnpark: a parked process resumed. Comp is the process name.
	KUnpark
	// KProcEnd: a process body returned (or was reaped at shutdown).
	// Comp is the process name; Arg is 1 when the process was killed.
	KProcEnd
	// KAcquire: a FIFO resource was seized. Comp is the resource name;
	// Arg is the time spent waiting in its queue, in nanoseconds.
	KAcquire
	// KRelease: a FIFO resource was freed. Comp is the resource name;
	// Arg is the hold duration in nanoseconds.
	KRelease
	// KEnqueue: an item was put on a blocking queue. Comp is the queue
	// name; Arg is the queue length after the put.
	KEnqueue
	// KDequeue: an item was taken from a blocking queue. Comp is the
	// queue name; Arg is the queue length after the take.
	KDequeue
	// KPoll: a communication agent picked up a work item (one turn of
	// the proxy dispatch loop of the paper's Figure 5). Comp is the
	// agent name; Arg is the item's wait between submit and service
	// start, in nanoseconds.
	KPoll
	// KScan: the proxy's command-queue scanner finished one scan pass.
	// Comp is the scanner name; Arg packs the pass's bit-vector word
	// probes (high 32 bits) and queue-head checks (low 31 bits), with
	// bit 31 set when the pass dequeued a command.
	KScan
	// KOpSubmit: an RMA/RQ operation was submitted at an endpoint.
	// Comp is the operation kind (PUT/GET/ENQ/DEQ); Arg is the payload
	// size in bytes.
	KOpSubmit
	// KOpDone: an RMA/RQ operation deposited its data at the
	// destination. Comp is the operation kind; Arg is the one-way
	// latency in nanoseconds.
	KOpDone
	// KDrop: the fault plane discarded a packet in flight. Comp is the
	// link name; Arg is the link-local packet sequence number.
	KDrop
	// KCorrupt: a packet arrived with payload damage and failed its CRC
	// check, so the receiver discarded it. Comp is the flow or link
	// name; Arg is the frame sequence (or link packet sequence).
	KCorrupt
	// KRetransmit: the reliable transport re-sent an unacknowledged
	// frame after a timeout. Comp is the flow name; Arg is the frame
	// sequence number.
	KRetransmit
	// KAck: the reliable transport sent a standalone acknowledgment
	// (piggybacked acks do not produce events). Comp is the flow name;
	// Arg is the cumulative ack sequence.
	KAck
	// KLinkDown: a packet was lost to a link-down window. Comp is the
	// link name; Arg is the link-local packet sequence number.
	KLinkDown
	// KStall: the fault plane stalled a communication agent (a proxy
	// hiccup or crash/restart window). Comp is the agent name; Arg is
	// the stall duration in nanoseconds.
	KStall

	// NumKinds is the number of event kinds.
	NumKinds = int(KStall) + 1
)

var kindNames = [NumKinds]string{
	"schedule", "fire", "spawn", "park", "unpark", "proc-end",
	"acquire", "release", "enqueue", "dequeue", "poll", "scan",
	"op-submit", "op-done", "drop", "corrupt", "retransmit", "ack",
	"link-down", "stall",
}

func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ScanArg packs a scan pass's statistics into a KScan Arg.
func ScanArg(probes, headChecks int64, found bool) int64 {
	arg := probes<<32 | (headChecks & 0x7fffffff)
	if found {
		arg |= 1 << 31
	}
	return arg
}

// ScanSample is one decoded KScan pass: how many bit-vector words the
// scanner probed, how many queue heads it touched (the cache-miss-prone
// part), and whether the pass dequeued a command.
type ScanSample struct {
	Probes     int64
	HeadChecks int64
	Found      bool
}

// DecodeScanArg unpacks a KScan Arg into a ScanSample. It is the single
// decoder for the packed word built by ScanArg; consumers (the metrics
// collector) must use it rather than re-implementing the bit layout.
func DecodeScanArg(arg int64) ScanSample {
	return ScanSample{
		Probes:     arg >> 32,
		HeadChecks: arg & 0x7fffffff,
		Found:      arg&(1<<31) != 0,
	}
}

// ScanStats unpacks a KScan Arg.
func ScanStats(arg int64) (probes, headChecks int64, found bool) {
	s := DecodeScanArg(arg)
	return s.Probes, s.HeadChecks, s.Found
}

// Event is one occurrence in a simulation run.
type Event struct {
	At   int64  // simulated time, nanoseconds
	Seq  uint64 // engine event sequence at record time
	Kind Kind
	Comp string // component: process, resource, queue, agent, or op kind
	Arg  int64  // kind-specific detail (see Kind constants)
}

func (ev Event) String() string {
	return fmt.Sprintf("%dns #%d %s %s %d", ev.At, ev.Seq, ev.Kind, ev.Comp, ev.Arg)
}

// Tracer receives events. Implementations are invoked from engine and
// simulated-process context — exactly one goroutine at a time, serialized
// by the engine's handoff — so they need no internal locking unless they
// are shared across concurrently running engines.
type Tracer interface {
	Record(Event)
}

// BatchTracer is a Tracer that can accept events in batches. The engine
// detects it and stages events in a small per-engine buffer, turning one
// interface call per occurrence into one per batch; RecordBatch receives
// the events in exactly the order Record would have.
//
// Implementations must consume the slice before returning — the caller
// reuses its backing array. Only tracers that fold events into their own
// state (digest, recorder, writer) should implement it; tracers that read
// live simulation state per event (the timeline sampler closes utilization
// windows by querying resources at record time) must NOT, because batching
// would delay their reads past the state they need to observe.
type BatchTracer interface {
	Tracer
	RecordBatch([]Event)
}

// Recorder keeps events in memory, up to Limit (unbounded when zero).
type Recorder struct {
	// Limit caps the number of retained events; further events are
	// counted in Dropped but not stored.
	Limit   int
	events  []Event
	dropped uint64
}

// Record implements Tracer.
func (r *Recorder) Record(ev Event) {
	if r.Limit > 0 && len(r.events) >= r.Limit {
		r.dropped++
		return
	}
	r.events = append(r.events, ev)
}

// RecordBatch implements BatchTracer, honoring Limit exactly as a
// per-event Record sequence would.
func (r *Recorder) RecordBatch(evs []Event) {
	if r.Limit > 0 {
		if room := r.Limit - len(r.events); room < len(evs) {
			if room < 0 {
				room = 0
			}
			r.dropped += uint64(len(evs) - room)
			evs = evs[:room]
		}
	}
	r.events = append(r.events, evs...)
}

// Events returns the retained events in record order.
func (r *Recorder) Events() []Event { return r.events }

// Dropped returns the number of events discarded over Limit.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Reset discards all retained events.
func (r *Recorder) Reset() { r.events = r.events[:0]; r.dropped = 0 }

// Digest folds the event stream into a SHA-256 hash. Two runs produce the
// same digest if and only if they emitted an identical event sequence —
// the property the golden-trace regression harness locks down.
type Digest struct {
	h     hash.Hash
	n     uint64
	buf   []byte
	atMax int64
}

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{h: sha256.New()} }

// Record implements Tracer, folding the event into the hash.
func (d *Digest) Record(ev Event) {
	d.n++
	if ev.At > d.atMax {
		d.atMax = ev.At
	}
	d.buf = d.buf[:0]
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(ev.At))
	d.buf = binary.LittleEndian.AppendUint64(d.buf, ev.Seq)
	d.buf = append(d.buf, byte(ev.Kind))
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(ev.Arg))
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(len(ev.Comp)))
	d.buf = append(d.buf, ev.Comp...)
	d.h.Write(d.buf)
}

// RecordBatch implements BatchTracer: the whole batch is serialized into
// one reused buffer and folded with a single hash write. The resulting
// digest is identical to per-event Record calls — the serialization is a
// plain concatenation of the per-event encodings.
func (d *Digest) RecordBatch(evs []Event) {
	d.buf = d.buf[:0]
	for _, ev := range evs {
		d.n++
		if ev.At > d.atMax {
			d.atMax = ev.At
		}
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(ev.At))
		d.buf = binary.LittleEndian.AppendUint64(d.buf, ev.Seq)
		d.buf = append(d.buf, byte(ev.Kind))
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(ev.Arg))
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(len(ev.Comp)))
		d.buf = append(d.buf, ev.Comp...)
	}
	d.h.Write(d.buf)
}

// Sum returns the hex digest of the stream so far.
func (d *Digest) Sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// Count returns the number of events folded in.
func (d *Digest) Count() uint64 { return d.n }

// LastAt returns the largest event timestamp seen, in nanoseconds.
func (d *Digest) LastAt() int64 { return d.atMax }

// Writer streams one line per event to an io.Writer, for interactive
// inspection of why a latency number changed.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter returns a Tracer that prints events to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Record implements Tracer. The first write error sticks and silences
// further output.
func (t *Writer) Record(ev Event) {
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintln(t.w, ev.String())
}

// RecordBatch implements BatchTracer.
func (t *Writer) RecordBatch(evs []Event) {
	for _, ev := range evs {
		t.Record(ev)
	}
}

// Err returns the first write error, if any.
func (t *Writer) Err() error { return t.err }

// Each calls fn for every tracer t delivers to: t itself, or each child of
// a Multi fan-out (recursively). Collectors that are fed by the model
// layers rather than the event stream are installed as tracers and found
// this way.
func Each(t Tracer, fn func(Tracer)) {
	switch m := t.(type) {
	case nil:
	case multi:
		for _, c := range m {
			Each(c, fn)
		}
	case batchMulti:
		for _, c := range m {
			Each(c, fn)
		}
	default:
		fn(t)
	}
}

type multi []Tracer

func (m multi) Record(ev Event) {
	for _, t := range m {
		t.Record(ev)
	}
}

// batchMulti is the fan-out used when every child is batch-capable, so
// the whole fan-out stays on the engine's batched path.
type batchMulti []BatchTracer

func (m batchMulti) Record(ev Event) {
	for _, t := range m {
		t.Record(ev)
	}
}

func (m batchMulti) RecordBatch(evs []Event) {
	for _, t := range m {
		t.RecordBatch(evs)
	}
}

// Multi fans events out to several tracers. Nil entries are skipped; with
// zero live tracers it returns nil so emit sites keep their fast path.
// When every live tracer is a BatchTracer the fan-out is one too; a single
// non-batching child (e.g. the timeline sampler, which must observe live
// state per event) keeps the whole fan-out synchronous.
func Multi(ts ...Tracer) Tracer {
	var live multi
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	batched := make(batchMulti, 0, len(live))
	for _, t := range live {
		bt, ok := t.(BatchTracer)
		if !ok {
			return live
		}
		batched = append(batched, bt)
	}
	return batched
}
