package sim

import (
	"testing"

	"mproxy/internal/trace"
)

func kinds(evs []trace.Event) []trace.Kind {
	out := make([]trace.Kind, len(evs))
	for i, ev := range evs {
		out[i] = ev.Kind
	}
	return out
}

func countKind(evs []trace.Event, k trace.Kind) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// TestEngineTraceStream checks the engine's emit sites: a spawn-hold-end
// process produces schedule/fire pairs plus spawn, park, unpark and
// proc-end events with monotonic timestamps and strictly increasing seqs.
func TestEngineTraceStream(t *testing.T) {
	r := &trace.Recorder{}
	e := NewEngine()
	e.SetTracer(r)
	e.Spawn("worker", func(p *Proc) {
		p.Hold(Micros(5))
		p.Hold(Micros(3))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	evs := r.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	if got := countKind(evs, trace.KSpawn); got != 1 {
		t.Errorf("KSpawn count = %d, want 1 (kinds: %v)", got, kinds(evs))
	}
	if got := countKind(evs, trace.KProcEnd); got != 1 {
		t.Errorf("KProcEnd count = %d, want 1", got)
	}
	// Each Hold parks once; spawn handoff parks the engine-side too, so
	// expect two park/unpark pairs from the holds.
	if parks, unparks := countKind(evs, trace.KPark), countKind(evs, trace.KUnpark); parks != unparks {
		t.Errorf("parks %d != unparks %d", parks, unparks)
	} else if parks < 2 {
		t.Errorf("parks = %d, want >= 2 (one per Hold)", parks)
	}
	if sched, fire := countKind(evs, trace.KSchedule), countKind(evs, trace.KFire); sched != fire {
		t.Errorf("schedules %d != fires %d (all events drained)", sched, fire)
	}
	var lastAt int64 = -1
	for i, ev := range evs {
		if ev.At < lastAt {
			t.Fatalf("event %d: time ran backwards: %d after %d", i, ev.At, lastAt)
		}
		lastAt = ev.At
	}
	// The worker's end event carries arg 0 (ran to completion, not killed).
	for _, ev := range evs {
		if ev.Kind == trace.KProcEnd && ev.Arg != 0 {
			t.Errorf("proc end arg = %d, want 0 for normal completion", ev.Arg)
		}
	}
}

// TestRecorderLimit checks bounded recording: events over Limit are counted
// as dropped, not stored.
func TestRecorderLimit(t *testing.T) {
	r := &trace.Recorder{Limit: 3}
	e := NewEngine()
	e.SetTracer(r)
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.Events()) != 3 {
		t.Errorf("retained %d events, want 3", len(r.Events()))
	}
	if r.Dropped() == 0 {
		t.Error("no events counted as dropped")
	}
}
