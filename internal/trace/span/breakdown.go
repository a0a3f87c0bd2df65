package span

import (
	"fmt"
	"sort"
	"strings"

	"mproxy/internal/trace/metrics"
)

// Group aggregates the phase breakdown of a set of spans sharing a key
// (an operation kind, or an operation+flow pair). Each phase carries a
// full histogram, so per-flow p50/p95/p99 come for free.
type Group struct {
	Key   string
	Count int
	// Total is the end-to-end latency distribution (Done-Submit).
	Total metrics.Hist
	// Phases[p] distributes each span's total time in phase p (summed
	// across hops). Spans that never enter a phase do not contribute a
	// zero sample; PhaseCounts tracks how many did.
	Phases      [NumPhases]metrics.Hist
	PhaseCounts [NumPhases]int
	Bytes       int64 // payload size, if uniform across the group; else -1
}

// Breakdown holds per-operation and per-flow groups over a span set —
// the data behind the Table 2-shaped latency-decomposition tables.
type Breakdown struct {
	ByOp   map[string]*Group
	ByFlow map[string]*Group
}

// Aggregate builds a breakdown from the complete spans of the slice.
func Aggregate(spans []*Span) *Breakdown {
	b := &Breakdown{ByOp: make(map[string]*Group), ByFlow: make(map[string]*Group)}
	for _, s := range spans {
		if !s.Complete {
			continue
		}
		b.group(b.ByOp, s.Op).add(s)
		b.group(b.ByFlow, s.Op+" "+s.Flow()).add(s)
	}
	return b
}

func (b *Breakdown) group(m map[string]*Group, key string) *Group {
	g := m[key]
	if g == nil {
		g = &Group{Key: key}
		m[key] = g
	}
	return g
}

func (g *Group) add(s *Span) {
	if g.Count == 0 {
		g.Bytes = s.Bytes
	} else if g.Bytes != s.Bytes {
		g.Bytes = -1
	}
	g.Count++
	g.Total.Add(s.Done - s.Submit)
	for p := 0; p < NumPhases; p++ {
		if s.HasPhase(Phase(p)) {
			g.Phases[p].Add(s.PhaseTotal(Phase(p)))
			g.PhaseCounts[p]++
		}
	}
}

// PhaseMeanUs returns the mean time in phase p, in microseconds, over the
// spans that entered it (0 if none did).
func (g *Group) PhaseMeanUs(p Phase) float64 {
	return g.Phases[p].Mean() / 1e3
}

// MeanUs returns the mean end-to-end latency in microseconds.
func (g *Group) MeanUs() float64 { return g.Total.Mean() / 1e3 }

// PhaseSnapshot summarizes one phase of a group.
type PhaseSnapshot struct {
	Phase string `json:"phase"`
	Count int    `json:"count"`
	metrics.HistSnapshot
}

// GroupSnapshot is the JSON form of a Group.
type GroupSnapshot struct {
	Key    string               `json:"key"`
	Count  int                  `json:"count"`
	Bytes  int64                `json:"bytes"`
	Total  metrics.HistSnapshot `json:"total"`
	Phases []PhaseSnapshot      `json:"phases"`
}

func (g *Group) snapshot() GroupSnapshot {
	gs := GroupSnapshot{
		Key: g.Key, Count: g.Count, Bytes: g.Bytes,
		Total: g.Total.Snapshot(),
	}
	for p := 0; p < NumPhases; p++ {
		if g.PhaseCounts[p] == 0 {
			continue
		}
		gs.Phases = append(gs.Phases, PhaseSnapshot{
			Phase:        Phase(p).String(),
			Count:        g.PhaseCounts[p],
			HistSnapshot: g.Phases[p].Snapshot(),
		})
	}
	return gs
}

// BreakdownSnapshot is the JSON form of a Breakdown, groups sorted by key
// for deterministic output.
type BreakdownSnapshot struct {
	ByOp   []GroupSnapshot `json:"by_op"`
	ByFlow []GroupSnapshot `json:"by_flow"`
}

// Snapshot renders the breakdown deterministically.
func (b *Breakdown) Snapshot() BreakdownSnapshot {
	return BreakdownSnapshot{ByOp: snapGroups(b.ByOp), ByFlow: snapGroups(b.ByFlow)}
}

func snapGroups(m map[string]*Group) []GroupSnapshot {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]GroupSnapshot, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k].snapshot())
	}
	return out
}

// Table renders the per-flow breakdown as a text table: one row per flow,
// one column per phase (mean microseconds), plus the end-to-end mean —
// the shape of the paper's Table 2, measured instead of modeled.
func (b *Breakdown) Table() string {
	keys := make([]string, 0, len(b.ByFlow))
	for k := range b.ByFlow {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Only print phases some flow actually entered.
	var used [NumPhases]bool
	for _, g := range b.ByFlow {
		for p := 0; p < NumPhases; p++ {
			if g.PhaseCounts[p] > 0 {
				used[p] = true
			}
		}
	}
	var bld strings.Builder
	bld.WriteString("phase-latency breakdown (mean us per message)\n")
	fmt.Fprintf(&bld, "%-34s %5s", "flow", "n")
	for p := 0; p < NumPhases; p++ {
		if used[p] {
			fmt.Fprintf(&bld, " %13s", Phase(p).String())
		}
	}
	fmt.Fprintf(&bld, " %13s\n", "total")
	for _, k := range keys {
		g := b.ByFlow[k]
		fmt.Fprintf(&bld, "%-34s %5d", k, g.Count)
		for p := 0; p < NumPhases; p++ {
			if !used[p] {
				continue
			}
			if g.PhaseCounts[p] == 0 {
				fmt.Fprintf(&bld, " %13s", "-")
			} else {
				fmt.Fprintf(&bld, " %13.3f", g.PhaseMeanUs(Phase(p)))
			}
		}
		fmt.Fprintf(&bld, " %13.3f\n", g.MeanUs())
	}
	return bld.String()
}
