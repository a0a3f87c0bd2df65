package prof

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mproxy/internal/comm"
	"mproxy/internal/fault"
	"mproxy/internal/rel"
	"mproxy/internal/trace"
	"mproxy/internal/trace/span"
	"mproxy/internal/trace/timeline"
)

var update = flag.Bool("update", false, "rewrite golden files")

var allArchs = []string{"MP0", "MP1", "MP2", "HW0", "HW1", "SW1"}

// TestPhaseSumExact is the core invariant of span recording: for every
// architecture and operation, each span completes with its design
// point's phase sequence, and its intervals chain from Submit to Done
// with no gap, no overlap and no boundary before its predecessor, so the
// per-phase breakdown sums to the end-to-end latency the fabric reports
// exactly — not approximately. The 16 KiB inputs stream in pages (DMA on the agents,
// per-page pinning in the kernel under SW1), whose later pages mark
// nothing: deliver runs from the first page's pickup to the last
// deposit.
func TestPhaseSumExact(t *testing.T) {
	type input struct {
		arch, op string
		bytes    int
	}
	var inputs []input
	for _, a := range allArchs {
		inputs = append(inputs, input{a, "PUT", 64}, input{a, "GET", 64})
	}
	for _, a := range []string{"MP1", "HW1", "SW1"} {
		inputs = append(inputs, input{a, "PUT", 16 << 10}, input{a, "GET", 16 << 10})
	}
	for _, in := range inputs {
		name := fmt.Sprintf("%s %s %dB", in.arch, in.op, in.bytes)
		events := &trace.Recorder{}
		r, err := PingPong(Config{Arch: in.arch, Op: in.op, Bytes: in.bytes, Tracer: events})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The ping-pong is serialized: operations complete in submission
		// order, each reporting its latency on a KOpDone event.
		var reported, recorded []int64
		for _, ev := range events.Events() {
			if ev.Kind == trace.KOpDone {
				reported = append(reported, ev.Arg)
			}
		}
		for _, s := range r.Rec.Spans() {
			recorded = append(recorded, s.Total())
		}
		if !slices.Equal(reported, recorded) {
			t.Errorf("%s: span phase sums %v, fabric latencies %v", name, recorded, reported)
		}
		want := r.Cfg.Reps
		if in.op == "PUT" {
			want *= 2 // both directions
		}
		if st := r.Rec.Stats(); st.Spans != want || st.Completed != want {
			t.Errorf("%s: %d spans, %d completed, want %d", name, st.Spans, st.Completed, want)
		}
		for _, s := range r.Rec.Spans() {
			checkSpan(t, name, s, phaseSeq(in.arch, in.op))
		}
	}
}

// phaseSeq is the phase sequence of every ping-pong span of op on a
// design point. The agents mark every boundary of each hop, a GET's
// reply included; the system-call kernel sends inline, and its GET reply
// stays in deliver.
func phaseSeq(archName, op string) []span.Phase {
	if strings.HasPrefix(archName, "SW") {
		return []span.Phase{span.PhaseSubmit, span.PhaseWire, span.PhaseDeliver}
	}
	seq := []span.Phase{span.PhaseSubmit, span.PhaseCmdQueue, span.PhaseService, span.PhaseWire, span.PhaseInputQueue}
	if op == "GET" {
		seq = append(seq, span.PhaseService, span.PhaseWire, span.PhaseInputQueue)
	}
	return append(seq, span.PhaseDeliver)
}

// checkSpan requires s to be complete with the phase sequence want and
// its intervals to chain from Submit to Done without running backwards.
func checkSpan(t *testing.T, name string, s *span.Span, want []span.Phase) {
	t.Helper()
	if !s.Complete {
		t.Errorf("%s span %d: incomplete", name, s.ID)
		return
	}
	got := make([]span.Phase, len(s.Intervals))
	for i, iv := range s.Intervals {
		got[i] = iv.Phase
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s span %d: phases %v, want %v\n%s", name, s.ID, got, want, s.Report())
	}
	if got, want := s.Total(), s.Done-s.Submit; got != want {
		t.Errorf("%s span %d: phase sum %d != lifetime %d", name, s.ID, got, want)
	}
	at := s.Submit
	for _, iv := range s.Intervals {
		if iv.From != at || iv.To < iv.From {
			t.Errorf("%s span %d: %s interval [%d, %d] does not follow %d\n%s",
				name, s.ID, iv.Phase, iv.From, iv.To, at, s.Report())
			return
		}
		at = iv.To
	}
	if at != s.Done {
		t.Errorf("%s span %d: intervals end at %d, span at %d", name, s.ID, at, s.Done)
	}
}

// TestFaultedSpans runs the ping-pong over a wire that drops and
// duplicates packets, with the reliable transport recovering them.
// Retransmitted and duplicated packets must neither re-mark nor
// double-close a span: every span keeps its clean-wire phase sequence,
// and the completed spans equal the completed operations.
func TestFaultedSpans(t *testing.T) {
	for _, archName := range []string{"MP1", "SW1"} {
		for _, op := range []string{"PUT", "GET"} {
			name := archName + " " + op
			events := &trace.Recorder{}
			r, err := PingPong(Config{
				Arch: archName, Op: op, Reps: 200,
				Fabric: comm.Options{Rel: &rel.Config{}},
				Fault:  fault.NewPlane(fault.Config{Seed: 3, Drop: 0.05, Dup: 0.05}),
				Tracer: events,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var done, retrans int
			for _, ev := range events.Events() {
				switch ev.Kind {
				case trace.KOpDone:
					done++
				case trace.KRetransmit:
					retrans++
				}
			}
			if retrans == 0 {
				t.Errorf("%s: the fault plane forced no retransmission", name)
			}
			if st := r.Rec.Stats(); st.Completed != done || st.Spans != done {
				t.Errorf("%s: %d spans, %d completed, %d operations completed", name, st.Spans, st.Completed, done)
			}
			for _, s := range r.Rec.Spans() {
				checkSpan(t, name, s, phaseSeq(archName, op))
			}
		}
	}
}

// TestDupWithoutRelCompletesOnce runs the ping-pong over a wire that
// duplicates packets with no reliable transport to filter the copies:
// the run still completes each operation exactly once.
func TestDupWithoutRelCompletesOnce(t *testing.T) {
	for _, archName := range []string{"MP1", "HW1", "SW1"} {
		for _, op := range []string{"PUT", "GET"} {
			events := &trace.Recorder{}
			_, err := PingPong(Config{
				Arch: archName, Op: op, Reps: 200,
				Fault:  fault.NewPlane(fault.Config{Seed: 3, Dup: 0.05}),
				Tracer: events,
			})
			if err != nil {
				t.Fatalf("%s %s: %v", archName, op, err)
			}
			done := 0
			for _, ev := range events.Events() {
				if ev.Kind == trace.KOpDone {
					done++
				}
			}
			want := 200 // GETs
			if op == "PUT" {
				want = 400 // a PUT each way per rep
			}
			if done != want {
				t.Errorf("%s %s: %d operations completed, %d issued", archName, op, done, want)
			}
		}
	}
}

// TestModelDelta checks the measured-vs-model acceptance bar on the
// calibrated serialized scenario: every phase of every architecture's
// PUT and GET must sit within 5% of the analytic phase prediction (in
// practice the deviation is sub-0.1%, pure nanosecond rounding).
func TestModelDelta(t *testing.T) {
	for _, archName := range allArchs {
		for _, op := range []string{"PUT", "GET"} {
			r, err := PingPong(Config{Arch: archName, Op: op})
			if err != nil {
				t.Fatalf("%s %s: %v", archName, op, err)
			}
			rows := r.BreakdownRows()
			if len(rows) == 0 {
				t.Fatalf("%s %s: no breakdown rows", archName, op)
			}
			modeled := 0
			for _, row := range rows {
				if !row.Model {
					continue
				}
				modeled++
				if row.ModelUs == 0 {
					if row.MeasuredUs != 0 {
						t.Errorf("%s %s %s: measured %.4fus, model 0",
							archName, op, row.Phase, row.MeasuredUs)
					}
					continue
				}
				if d := math.Abs(row.DeltaPct); d > 5 {
					t.Errorf("%s %s %s: measured %.4fus vs model %.4fus (delta %.2f%%)",
						archName, op, row.Phase, row.MeasuredUs, row.ModelUs, row.DeltaPct)
				}
			}
			if modeled < 4 {
				t.Errorf("%s %s: only %d modeled rows", archName, op, modeled)
			}
		}
	}
}

// TestSpanRoutes checks flow reconstruction: an MP1 PUT visits the local
// and remote proxies in order.
func TestSpanRoutes(t *testing.T) {
	r, err := PingPong(Config{Arch: "MP1", Op: "PUT"})
	if err != nil {
		t.Fatal(err)
	}
	spans := r.Rec.CompleteSpans()
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	s := spans[0]
	if got, want := s.Flow(), "pinger>node0.proxy0>node1.proxy0"; got != want {
		t.Errorf("flow = %q, want %q", got, want)
	}
	if s.Probes == 0 {
		t.Errorf("span %d: no command-queue scan work attributed", s.ID)
	}
	if rep := s.Report(); rep == "" {
		t.Errorf("empty critical-path report")
	}
}

// TestTimelineWindows checks the sampler produced utilization windows for
// the proxies and links, with utilization in range.
func TestTimelineWindows(t *testing.T) {
	r, err := PingPong(Config{Arch: "MP1", Op: "PUT", Reps: 64, PeriodNs: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	wins := r.Smp.Windows()
	if len(wins) == 0 {
		t.Fatal("no timeline windows")
	}
	kinds := map[string]int{}
	for _, w := range wins {
		kinds[w.Kind]++
		if w.End <= w.Start {
			t.Fatalf("window %+v: non-positive length", w)
		}
		if w.Util != -1 && (w.Util < -1e-9 || w.Util > 1+1e-9) {
			t.Errorf("window %+v: utilization out of range", w)
		}
		if w.Kind == "cmdq" && w.Depth < 0 {
			t.Errorf("cmdq window %+v: missing depth", w)
		}
	}
	for _, k := range []string{"proxy", "nic", "dma", "cmdq"} {
		if kinds[k] == 0 {
			t.Errorf("no %q windows (got %v)", k, kinds)
		}
	}
	// The proxy is meaningfully busy in a serialized ping-pong: some
	// window must show nonzero utilization.
	busy := false
	for _, w := range wins {
		if w.Kind == "proxy" && w.Util > 0 {
			busy = true
		}
	}
	if !busy {
		t.Error("all proxy windows idle")
	}
}

// TestChromeDeterminism renders the Chrome trace twice from independent
// runs and requires byte identity, then compares against the blessed
// golden (refresh with -update).
func TestChromeDeterminism(t *testing.T) {
	render := func() []byte {
		r, err := PingPong(Config{Arch: "MP1", Op: "PUT"})
		if err != nil {
			t.Fatal(err)
		}
		b, err := timeline.ChromeTrace(r.Rec.Spans(), r.Smp.Windows())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("Chrome trace differs between identical runs")
	}
	golden := filepath.Join("testdata", "pingpong-mp1-chrome.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, a, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(a, want) {
		t.Errorf("Chrome trace deviates from blessed golden %s; re-bless with -update if intended", golden)
	}
}

// TestProfileJSON checks the combined report is well-formed and
// deterministic.
func TestProfileJSON(t *testing.T) {
	r, err := PingPong(Config{Arch: "MP1", Op: "GET"})
	if err != nil {
		t.Fatal(err)
	}
	p := r.Profile()
	if p.CriticalPath == "" {
		t.Error("profile missing critical path")
	}
	j1, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := PingPong(Config{Arch: "MP1", Op: "GET"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r2.Profile().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("profile JSON differs between identical runs")
	}
}
