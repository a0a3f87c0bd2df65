package timeline

import (
	"encoding/json"

	"mproxy/internal/trace/span"
)

// Profile is the combined observability report for one run (or driver
// session): span counts, the per-operation and per-flow
// phase breakdowns, utilization/depth windows, and the critical path of
// the slowest message.
type Profile struct {
	Scenario     string                 `json:"scenario,omitempty"`
	SpanStats    span.Stats             `json:"span_stats"`
	Breakdown    span.BreakdownSnapshot `json:"breakdown"`
	Windows      []Window               `json:"windows"`
	CriticalPath string                 `json:"critical_path,omitempty"`
}

// BuildProfile assembles a Profile from a span recorder and (optionally)
// a sampler. The sampler is flushed; pass nil to skip the timeline
// section.
func BuildProfile(rec *span.Recorder, smp *Sampler, scenario string) Profile {
	p := Profile{Scenario: scenario, SpanStats: rec.Stats()}
	p.Breakdown = span.Aggregate(rec.Spans()).Snapshot()
	if smp != nil {
		smp.Flush()
		p.Windows = smp.Windows()
	}
	if worst := SlowestSpan(rec.Spans()); worst != nil {
		p.CriticalPath = worst.Report()
	}
	return p
}

// SlowestSpan returns the complete span with the largest end-to-end
// latency (ties broken by lowest ID), or nil if none completed.
func SlowestSpan(spans []*span.Span) *span.Span {
	var worst *span.Span
	for _, s := range spans {
		if s.Complete && (worst == nil || s.Done-s.Submit > worst.Done-worst.Submit) {
			worst = s
		}
	}
	return worst
}

// JSON renders the profile as indented, deterministic JSON.
func (p Profile) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}
