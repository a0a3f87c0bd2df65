package span

import (
	"strings"
	"testing"

	"mproxy/internal/trace"
)

// clock is a settable engine clock for driving a Run by hand.
type clock int64

func (c *clock) now() int64 { return int64(*c) }

// attach starts a run on rec over a fresh clock.
func attach(t *testing.T, rec trace.Tracer) (*Run, *clock) {
	t.Helper()
	c := new(clock)
	u := Attach(rec, c.now)
	if u == nil {
		t.Fatal("Attach found no recorder")
	}
	return u, c
}

// recordPUT marks the proxy-architecture PUT lifecycle the fabric
// produces: submit, command-queue wait, service, wire, input wait,
// deliver.
func recordPUT(u *Run, c *clock) uint32 {
	*c = 0
	id := u.Open("PUT", 64, "user")
	*c = 100
	u.Enqueued(id)
	*c = 200
	u.Picked(id, "p0", 3, 1)
	*c = 300
	u.Launched(id)
	*c = 450
	u.Arrived(id)
	*c = 500
	u.Picked(id, "p1", 0, 0)
	*c = 600
	u.Done(id, "p1")
	return id
}

func TestRecordPUT(t *testing.T) {
	rec := NewRecorder()
	u, c := attach(t, rec)
	if id := recordPUT(u, c); id != 1 {
		t.Errorf("first span ID = %d, want 1", id)
	}
	spans := rec.CompleteSpans()
	if len(spans) != 1 {
		t.Fatalf("got %d complete spans, want 1: %+v", len(spans), rec.Stats())
	}
	s := spans[0]
	if s.Op != "PUT" || s.Bytes != 64 || s.Origin != "user" {
		t.Errorf("span header wrong: %+v", s)
	}
	if s.Submit != 0 || s.Done != 600 || s.Latency != 600 || s.Total() != 600 {
		t.Errorf("span times wrong: submit=%d done=%d lat=%d sum=%d", s.Submit, s.Done, s.Latency, s.Total())
	}
	want := []Interval{
		{PhaseSubmit, "user", 0, 0, 100},
		{PhaseCmdQueue, "p0.q", 0, 100, 200},
		{PhaseService, "p0", 0, 200, 300},
		{PhaseWire, "wire", 0, 300, 450},
		{PhaseInputQueue, "p1.q", 1, 450, 500},
		{PhaseDeliver, "p1", 1, 500, 600},
	}
	if len(s.Intervals) != len(want) {
		t.Fatalf("intervals = %+v, want %+v", s.Intervals, want)
	}
	for i, iv := range s.Intervals {
		if iv != want[i] {
			t.Errorf("interval %d = %+v, want %+v", i, iv, want[i])
		}
	}
	if got, want := s.Flow(), "user>p0>p1"; got != want {
		t.Errorf("flow = %q, want %q", got, want)
	}
	if s.Probes != 3 || s.HeadChecks != 1 {
		t.Errorf("scan attribution: probes=%d checks=%d, want 3/1", s.Probes, s.HeadChecks)
	}
}

// TestRuns: every fabric attached to a recorder is a run of its own, and
// span IDs are local to the run.
func TestRuns(t *testing.T) {
	rec := NewRecorder()
	u0, c0 := attach(t, rec)
	recordPUT(u0, c0)
	u1, c1 := attach(t, rec)
	if id := recordPUT(u1, c1); id != 1 {
		t.Errorf("second run's first span ID = %d, want 1", id)
	}
	spans := rec.CompleteSpans()
	if len(spans) != 2 {
		t.Fatalf("got %d complete spans, want 2", len(spans))
	}
	if spans[0].Run != 0 || spans[1].Run != 1 || spans[1].ID != 1 {
		t.Errorf("runs = %d,%d ids = %d,%d, want runs 0,1 ids 0,1",
			spans[0].Run, spans[1].Run, spans[0].ID, spans[1].ID)
	}
	if st := rec.Stats(); st.Runs != 2 || st.Spans != 2 || st.Completed != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestIncompleteSpan: a span never marked done stays out of the complete
// set.
func TestIncompleteSpan(t *testing.T) {
	rec := NewRecorder()
	u, c := attach(t, rec)
	id := u.Open("GET", 8, "user")
	*c = 10
	u.Enqueued(id)
	if got := len(rec.CompleteSpans()); got != 0 {
		t.Fatalf("got %d complete spans, want 0", got)
	}
	if st := rec.Stats(); st.Spans != 1 || st.Completed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestMarksOutOfState: marks that do not advance the lifecycle change
// nothing — later pages of a multi-page transfer, duplicated packets, a
// second completion, and span ID 0 (an acknowledgment).
func TestMarksOutOfState(t *testing.T) {
	rec := NewRecorder()
	u, c := attach(t, rec)
	id := u.Open("PUT", 16384, "user")
	*c = 100
	u.Enqueued(id)
	u.Enqueued(id)
	*c = 200
	u.Picked(id, "p0", 0, 0)
	*c = 300
	u.Launched(id) // first page
	*c = 400
	u.Launched(id) // second page
	*c = 450
	u.Arrived(id) // first page
	*c = 460
	u.Arrived(id) // duplicate
	*c = 500
	u.Picked(id, "p1", 0, 0)
	*c = 550
	u.Arrived(id)            // second page
	u.Picked(id, "p1", 0, 0) // second page
	*c = 700
	u.Done(id, "p1")
	*c = 800
	u.Done(id, "p1")
	for _, f := range []func(uint32){u.Enqueued, u.Launched, u.Arrived} {
		f(0)
	}
	u.Done(0, "p1")
	s := rec.Spans()[0]
	if len(s.Intervals) != 6 || s.Done != 700 || s.Total() != 700 || s.Route[len(s.Route)-1] != "p1" || len(s.Route) != 2 {
		t.Errorf("extra marks changed the span:\n%s", s.Report())
	}
	if st := rec.Stats(); st.Completed != 1 {
		t.Errorf("completed = %d, want 1", st.Completed)
	}
}

// TestKernelSend: under the system-call design point the user's kernel
// launches the packet itself (submit ends at the launch), and a reply
// launched from interrupt context after the arrival stays in deliver.
func TestKernelSend(t *testing.T) {
	rec := NewRecorder()
	u, c := attach(t, rec)
	id := u.Open("GET", 64, "user")
	*c = 100
	u.Launched(id)
	*c = 150
	u.Arrived(id)
	*c = 300
	u.Launched(id)
	*c = 350
	u.Arrived(id)
	*c = 500
	u.Done(id, "engine")
	s := rec.Spans()[0]
	want := []Phase{PhaseSubmit, PhaseWire, PhaseDeliver}
	if len(s.Intervals) != len(want) {
		t.Fatalf("intervals:\n%s", s.Report())
	}
	for i, p := range want {
		if s.Intervals[i].Phase != p {
			t.Errorf("interval %d is %s, want %s", i, s.Intervals[i].Phase, p)
		}
	}
	if s.Intervals[0].Where != "user" || s.PhaseTotal(PhaseDeliver) != 350 {
		t.Errorf("kernel send attributed wrong:\n%s", s.Report())
	}
}

// TestDeq: the remote queue's record-taken mark ends rq-wait, and the
// reply agent's pickup ends the reply's input wait.
func TestDeq(t *testing.T) {
	rec := NewRecorder()
	u, c := attach(t, rec)
	id := u.Open("DEQ", 8, "user")
	for _, step := range []func(){
		func() { u.Enqueued(id) },
		func() { u.Picked(id, "p0", 0, 0) },
		func() { u.Launched(id) },
		func() { u.Arrived(id) },
		func() { u.Picked(id, "p1", 0, 0) },
		func() { u.Taken(id, "p1") },
		func() { u.Picked(id, "p1", 0, 0) },
		func() { u.Launched(id) },
		func() { u.Arrived(id) },
		func() { u.Picked(id, "p0", 0, 0) },
		func() { u.Done(id, "p0") },
	} {
		*c += 100
		step()
	}
	s := rec.Spans()[0]
	want := []Phase{
		PhaseSubmit, PhaseCmdQueue, PhaseService, PhaseWire, PhaseInputQueue,
		PhaseRQWait, PhaseInputQueue, PhaseService, PhaseWire, PhaseInputQueue, PhaseDeliver,
	}
	if len(s.Intervals) != len(want) {
		t.Fatalf("intervals:\n%s", s.Report())
	}
	for i, p := range want {
		if s.Intervals[i].Phase != p {
			t.Errorf("interval %d is %s, want %s", i, s.Intervals[i].Phase, p)
		}
	}
	if got := s.Flow(); got != "user>p0>p1>p0" {
		t.Errorf("flow = %q", got)
	}
}

// TestIntra: an operation completed without leaving its origin is a
// shared-memory transfer on the origin's processor.
func TestIntra(t *testing.T) {
	rec := NewRecorder()
	u, c := attach(t, rec)
	id := u.Open("ENQ", 8, "user")
	*c = 40
	u.Done(id, "")
	s := rec.Spans()[0]
	if !s.Intra || s.Flow() != "user>intra" || len(s.Intervals) != 1 ||
		s.Intervals[0].Phase != PhaseIntra || s.Intervals[0].Where != "user" {
		t.Errorf("intra span:\n%s", s.Report())
	}
	if rec.Stats().Intra != 1 {
		t.Errorf("stats = %+v", rec.Stats())
	}
}

// TestAttach: Attach finds recorders anywhere in a fan-out, feeds each
// its own spans, and returns nil when there is none.
func TestAttach(t *testing.T) {
	if Attach(nil, nil) != nil || Attach(trace.NewDigest(), nil) != nil {
		t.Error("Attach without a recorder returned a run")
	}
	a, b := NewRecorder(), NewRecorder()
	NewRecorder() // not installed
	u, c := attach(t, trace.Multi(trace.NewDigest(), trace.Multi(a, &trace.Recorder{}), b))
	recordPUT(u, c)
	for _, rec := range []*Recorder{a, b} {
		if spans := rec.CompleteSpans(); len(spans) != 1 || spans[0].Total() != 600 {
			t.Errorf("recorder got %d spans", len(spans))
		}
	}
	if a.Spans()[0] == b.Spans()[0] {
		t.Error("recorders share a span")
	}
}

func TestBreakdownAggregate(t *testing.T) {
	rec := NewRecorder()
	u, c := attach(t, rec)
	recordPUT(u, c)
	u, c = attach(t, rec)
	recordPUT(u, c)
	bd := Aggregate(rec.Spans())
	g := bd.ByOp["PUT"]
	if g == nil || g.Count != 2 {
		t.Fatalf("PUT group missing or wrong count: %+v", g)
	}
	if g.MeanUs() != 0.6 {
		t.Errorf("mean latency = %v us, want 0.6", g.MeanUs())
	}
	if g.PhaseMeanUs(PhaseWire) != 0.15 {
		t.Errorf("wire mean = %v us, want 0.15", g.PhaseMeanUs(PhaseWire))
	}
	// Phase means must sum to the total mean: the exact-sum invariant
	// survives aggregation.
	var sum float64
	for p := 0; p < NumPhases; p++ {
		sum += g.PhaseMeanUs(Phase(p))
	}
	if diff := sum - g.MeanUs(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("phase means sum %v != total mean %v", sum, g.MeanUs())
	}
	tbl := bd.Table()
	if !strings.Contains(tbl, "PUT user>p0>p1") || !strings.Contains(tbl, "agent-service") {
		t.Errorf("table missing expected content:\n%s", tbl)
	}
	snap := bd.Snapshot()
	if len(snap.ByOp) != 1 || len(snap.ByFlow) != 1 {
		t.Errorf("snapshot groups: %d/%d, want 1/1", len(snap.ByOp), len(snap.ByFlow))
	}
}
