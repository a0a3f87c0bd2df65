package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of the benchmark's own work: the set, a
// workload rep, a child process, or a call the child made into the
// program (a constructor or scenario.Run). Times are Unix nanoseconds, so
// spans recorded in a child line up with the parent's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SelfNs int64  `json:"self_ns"`
}

// spanRecorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, which is how runs with tracing off skip it.
type spanRecorder struct {
	spans []span
}

// begin opens a span under parent (0 for a root) and returns its id.
func (r *spanRecorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: time.Now().UnixNano()})
	return len(r.spans)
}

// end closes the span id returned by begin.
func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Now().UnixNano()
}

// add records an already timed root interval.
func (r *spanRecorder) add(name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
}

// adopt grafts spans recorded by a child process under parent, renumbering
// them into this recorder's id space.
func (r *spanRecorder) adopt(parent int, child []span) {
	if r == nil {
		return
	}
	base := len(r.spans)
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// withSelf returns the spans with SelfNs filled in: each span's duration
// minus the durations of its children. Children of one span never
// overlap (the benchmark runs one thing at a time), so the sum is the
// part of the interval they cover.
func (r *spanRecorder) withSelf() []span {
	out := append([]span(nil), r.spans...)
	for i := range out {
		out[i].SelfNs = out[i].End - out[i].Start
	}
	for _, s := range out {
		if s.Parent > 0 {
			out[s.Parent-1].SelfNs -= s.End - s.Start
		}
	}
	return out
}

// write saves the spans as JSON.
func (r *spanRecorder) write(path string) error {
	b, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{r.withSelf()}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
