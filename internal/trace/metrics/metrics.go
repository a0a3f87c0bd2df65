// Package metrics turns the simulator's trace stream into per-component
// counters and histograms: how many events of each kind every resource,
// queue, agent and operation type produced, plus latency distributions for
// the kinds whose Arg carries a duration (resource waits, agent work-item
// waits, operation completions). A Collector is a trace.Tracer, so it can
// be installed alone or fanned out next to a digest via trace.Multi.
package metrics

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"mproxy/internal/trace"
)

// durationKinds are the kinds whose Arg is a duration in nanoseconds.
var durationKinds = map[trace.Kind]bool{
	trace.KAcquire: true, // queue wait before seizing a resource
	trace.KRelease: true, // hold time
	trace.KPoll:    true, // agent work-item wait (notice + queueing)
	trace.KOpDone:  true, // one-way operation latency
}

// histBuckets is the bucket count of the log-linear layout below:
// 16 exact buckets for v < 16, then 16 sub-buckets per power of two for
// the 59 exponents 4..62 a positive int64 can carry (16 + 59*16 = 960).
const histBuckets = 960

// Hist is a log-linear (HDR-style) bucket histogram of nanosecond
// durations. Values below 16 count exactly; every larger value lands in
// one of 16 linear sub-buckets of its power-of-two range, so any bucket's
// bounds are within 1/16 (6.25%) of each other. That resolution is what
// keeps tail quantiles (p99, p999) honest at microsecond scale — the old
// power-of-two buckets quantized a 1000 ns p999 into "somewhere below
// 1024", a 2x-wide answer.
type Hist struct {
	Buckets [histBuckets]uint64
	N       uint64
	Sum     int64
	Min     int64
	Max     int64
}

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < 16 {
		return int(v)
	}
	msb := bits.Len64(uint64(v)) - 1 // >= 4
	sub := int(v>>(uint(msb)-4)) & 15
	return 16 + (msb-4)*16 + sub
}

// bucketHi returns the bucket's inclusive upper bound.
func bucketHi(i int) int64 {
	if i < 16 {
		return int64(i)
	}
	msb := (i-16)/16 + 4
	sub := (i - 16) % 16
	return int64(16+sub+1)<<(uint(msb)-4) - 1
}

// Add folds a value into the histogram. Negative values clamp to zero.
func (h *Hist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.N++
	h.Sum += v
	h.Buckets[bucketOf(v)]++
}

// Mean returns the average value.
func (h *Hist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Merge folds other into h. Buckets, counts and sums add; Min/Max combine.
// Merging is commutative and associative up to these fields, so snapshots
// of h after merging a set of histograms in any order are identical.
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.N == 0 {
		return
	}
	if h.N == 0 || other.Min < h.Min {
		h.Min = other.Min
	}
	if other.Max > h.Max {
		h.Max = other.Max
	}
	h.N += other.N
	h.Sum += other.Sum
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1): the
// containing bucket's upper bound, clamped to the observed Max. Values
// below 16 resolve exactly; larger ones to within 1/16 relative error.
func (h *Hist) Quantile(q float64) int64 {
	if h.N == 0 {
		return 0
	}
	target := uint64(q * float64(h.N))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range h.Buckets {
		seen += c
		if seen >= target {
			hi := bucketHi(i)
			if hi > h.Max {
				hi = h.Max
			}
			return hi
		}
	}
	return h.Max
}

// HistSnapshot is the JSON-friendly summary of a histogram, in
// microseconds (the paper's unit).
type HistSnapshot struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	MinUs  float64 `json:"min_us"`
	MaxUs  float64 `json:"max_us"`
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
}

// Snapshot summarizes the histogram in microseconds (the paper's unit).
func (h *Hist) Snapshot() HistSnapshot {
	return HistSnapshot{
		Count:  h.N,
		MeanUs: h.Mean() / 1e3,
		MinUs:  float64(h.Min) / 1e3,
		MaxUs:  float64(h.Max) / 1e3,
		P50Us:  float64(h.Quantile(0.50)) / 1e3,
		P95Us:  float64(h.Quantile(0.95)) / 1e3,
		P99Us:  float64(h.Quantile(0.99)) / 1e3,
		P999Us: float64(h.Quantile(0.999)) / 1e3,
	}
}

// comp accumulates per-component statistics.
type comp struct {
	byKind [trace.NumKinds]uint64
	durs   map[trace.Kind]*Hist
	scan   ScanSnapshot
}

// ScanSnapshot aggregates a scanner's KScan passes: total bit-vector word
// probes, queue-head checks, and how many passes dequeued a command.
type ScanSnapshot struct {
	Passes     uint64 `json:"passes"`
	Probes     int64  `json:"probes"`
	HeadChecks int64  `json:"head_checks"`
	Found      uint64 `json:"found"`
}

// Collector accumulates counters and histograms from a trace stream. It is
// not safe for concurrent use across simultaneously running engines; the
// experiment drivers run their simulations sequentially.
type Collector struct {
	total  uint64
	byKind [trace.NumKinds]uint64
	comps  map[string]*comp
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{comps: make(map[string]*comp)} }

// Record implements trace.Tracer.
func (c *Collector) Record(ev trace.Event) {
	c.total++
	c.byKind[ev.Kind]++
	// Engine-level schedule/fire events carry no component; counting them
	// globally is enough and keeps the per-component map small.
	if ev.Comp == "" {
		return
	}
	cp := c.comps[ev.Comp]
	if cp == nil {
		cp = &comp{}
		// Component names may share one arena with the rest of their
		// cluster's (package names); the collector outlives the cluster.
		c.comps[strings.Clone(ev.Comp)] = cp
	}
	cp.byKind[ev.Kind]++
	if ev.Kind == trace.KScan {
		s := trace.DecodeScanArg(ev.Arg)
		cp.scan.Passes++
		cp.scan.Probes += s.Probes
		cp.scan.HeadChecks += s.HeadChecks
		if s.Found {
			cp.scan.Found++
		}
	}
	if durationKinds[ev.Kind] {
		if cp.durs == nil {
			cp.durs = make(map[trace.Kind]*Hist)
		}
		h := cp.durs[ev.Kind]
		if h == nil {
			h = &Hist{}
			cp.durs[ev.Kind] = h
		}
		h.Add(ev.Arg)
	}
}

// Total returns the number of events seen.
func (c *Collector) Total() uint64 { return c.total }

// CompSnapshot summarizes one component.
type CompSnapshot struct {
	Name      string                  `json:"name"`
	Events    uint64                  `json:"events"`
	ByKind    map[string]uint64       `json:"by_kind"`
	Durations map[string]HistSnapshot `json:"durations,omitempty"`
	Scan      *ScanSnapshot           `json:"scan,omitempty"`
}

// Snapshot is the collector's full state, ready for JSON encoding.
type Snapshot struct {
	TotalEvents uint64            `json:"total_events"`
	ByKind      map[string]uint64 `json:"by_kind"`
	Components  []CompSnapshot    `json:"components"`
}

// Snapshot captures the current counters, components sorted by name.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{TotalEvents: c.total, ByKind: make(map[string]uint64)}
	for k, n := range c.byKind {
		if n > 0 {
			s.ByKind[trace.Kind(k).String()] = n
		}
	}
	names := make([]string, 0, len(c.comps))
	for name := range c.comps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cp := c.comps[name]
		cs := CompSnapshot{Name: name, ByKind: make(map[string]uint64)}
		for k, n := range cp.byKind {
			if n > 0 {
				cs.ByKind[trace.Kind(k).String()] = n
				cs.Events += n
			}
		}
		if len(cp.durs) > 0 {
			cs.Durations = make(map[string]HistSnapshot, len(cp.durs))
			for k, h := range cp.durs {
				cs.Durations[k.String()] = h.Snapshot()
			}
		}
		if cp.scan.Passes > 0 {
			sc := cp.scan
			cs.Scan = &sc
		}
		s.Components = append(s.Components, cs)
	}
	return s
}

// JSON renders the snapshot as indented JSON.
func (c *Collector) JSON() (string, error) {
	b, err := json.MarshalIndent(c.Snapshot(), "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Summary renders a human-readable report: global kind counts, then one
// block per component with its counters and duration statistics.
func (c *Collector) Summary() string {
	s := c.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "trace metrics: %d events\n", s.TotalEvents)
	for _, k := range kindOrder(s.ByKind) {
		fmt.Fprintf(&b, "  %-10s %12d\n", k, s.ByKind[k])
	}
	for _, cs := range s.Components {
		fmt.Fprintf(&b, "%s: %d events\n", cs.Name, cs.Events)
		for _, k := range kindOrder(cs.ByKind) {
			fmt.Fprintf(&b, "  %-10s %12d", k, cs.ByKind[k])
			if d, ok := cs.Durations[k]; ok {
				fmt.Fprintf(&b, "   mean %.2fus  p50 %.2fus  p99 %.2fus  max %.2fus",
					d.MeanUs, d.P50Us, d.P99Us, d.MaxUs)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// kindOrder returns the map's kind names in Kind declaration order.
func kindOrder(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := 0; k < trace.NumKinds; k++ {
		name := trace.Kind(k).String()
		if _, ok := m[name]; ok {
			out = append(out, name)
		}
	}
	return out
}
