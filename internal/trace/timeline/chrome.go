package timeline

import (
	"encoding/json"
	"fmt"
	"sort"

	"mproxy/internal/trace/span"
)

// chromeEvent is one entry of the Chrome trace-event JSON format
// (chrome://tracing, Perfetto). Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// ChromeTrace renders spans and sampling windows as Chrome trace-event
// JSON. Each engine run becomes a process; each component (issuing
// process, agent queue, agent, wire) becomes a thread carrying the span
// intervals attributed to it as complete ("X") events, and each
// utilization/depth probe becomes a counter ("C") track. Output is fully
// deterministic: tracks are sorted by name, events follow span and window
// emission order.
func ChromeTrace(spans []*span.Span, windows []Window) ([]byte, error) {
	// Collect track names per run: interval locations plus counter probes.
	type trackKey struct {
		run  int
		name string
	}
	trackSet := make(map[trackKey]bool)
	runs := make(map[int]bool)
	for _, s := range spans {
		runs[s.Run] = true
		for _, iv := range s.Intervals {
			trackSet[trackKey{s.Run, iv.Where}] = true
		}
	}
	for _, w := range windows {
		runs[w.Run] = true
	}
	tids := make(map[trackKey]int)
	var evs []chromeEvent

	runList := make([]int, 0, len(runs))
	for r := range runs {
		runList = append(runList, r)
	}
	sort.Ints(runList)
	for _, r := range runList {
		pid := r + 1
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("run %d", r)},
		})
		var names []string
		for k := range trackSet {
			if k.run == r {
				names = append(names, k.name)
			}
		}
		sort.Strings(names)
		for i, n := range names {
			tids[trackKey{r, n}] = i + 1
			evs = append(evs, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: i + 1,
				Args: map[string]any{"name": n},
			})
		}
	}
	for _, s := range spans {
		pid := s.Run + 1
		for _, iv := range s.Intervals {
			d := us(iv.Dur())
			evs = append(evs, chromeEvent{
				Name: iv.Phase.String(), Ph: "X",
				Pid: pid, Tid: tids[trackKey{s.Run, iv.Where}],
				Ts: us(iv.From), Dur: &d, Cat: s.Op,
				Args: map[string]any{"span": s.ID, "bytes": s.Bytes, "hop": iv.Hop},
			})
		}
	}
	for _, w := range windows {
		pid := w.Run + 1
		if w.Util >= 0 {
			evs = append(evs, chromeEvent{
				Name: w.Probe + " util", Ph: "C", Pid: pid,
				Ts:   us(w.Start),
				Args: map[string]any{"util": w.Util},
			})
		}
		if w.Depth >= 0 {
			evs = append(evs, chromeEvent{
				Name: w.Probe + " depth", Ph: "C", Pid: pid,
				Ts:   us(w.Start),
				Args: map[string]any{"depth": w.Depth},
			})
		}
	}
	return json.MarshalIndent(chromeFile{TraceEvents: evs, DisplayTimeUnit: "ms"}, "", " ")
}

// Slice is one complete interval on a named track, for renderers that
// build Chrome traces from sources other than the span recorder — the
// flight recorder's exemplar dumps use it.
type Slice struct {
	Track   string
	Name    string
	StartNs int64
	DurNs   int64
	Cat     string
	Args    map[string]any
}

// ChromeSlices renders labeled intervals as Chrome trace-event JSON with
// the same deterministic shaping as ChromeTrace: one process (named
// process), tracks sorted by name, slices in input order.
func ChromeSlices(process string, slices []Slice) ([]byte, error) {
	const pid = 1
	evs := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": process},
	}}
	var names []string
	seen := make(map[string]bool)
	for _, s := range slices {
		if !seen[s.Track] {
			seen[s.Track] = true
			names = append(names, s.Track)
		}
	}
	sort.Strings(names)
	tids := make(map[string]int, len(names))
	for i, n := range names {
		tids[n] = i + 1
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: i + 1,
			Args: map[string]any{"name": n},
		})
	}
	for _, s := range slices {
		d := us(s.DurNs)
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X", Pid: pid, Tid: tids[s.Track],
			Ts: us(s.StartNs), Dur: &d, Cat: s.Cat, Args: s.Args,
		})
	}
	return json.MarshalIndent(chromeFile{TraceEvents: evs, DisplayTimeUnit: "ms"}, "", " ")
}
