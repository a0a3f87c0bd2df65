package sim

import (
	"strings"
	"testing"
)

// TestRunUntilZeroDelayAtLimit pins the fast-lane boundary: an event firing
// exactly at the limit may schedule zero-delay work, and that work runs
// within the same RunUntil call — its timestamp equals the limit.
func TestRunUntilZeroDelayAtLimit(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(5, func() {
		order = append(order, "outer")
		e.Schedule(0, func() {
			order = append(order, "inner")
			e.Schedule(0, func() { order = append(order, "innermost") })
		})
	})
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "outer,inner,innermost" {
		t.Fatalf("fired %q, want outer,inner,innermost", got)
	}
	if e.Now() != 5 {
		t.Fatalf("now = %v, want 5", e.Now())
	}
}

// TestRunUntilBelowNowLeavesLanePending pins the other side of the
// boundary: a zero-delay event scheduled after time has advanced past t
// must NOT run during RunUntil(t) — the limit check applies to the lane
// exactly as it does to the heap.
func TestRunUntilBelowNowLeavesLanePending(t *testing.T) {
	e := NewEngine()
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	fired := false
	e.Schedule(0, func() { fired = true }) // pending at t=10
	if err := e.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("zero-delay event at t=10 fired during RunUntil(3)")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event never fired once the limit caught up")
	}
}

// TestWakeAfterStopThenShutdown pins the stop/reap interaction: a Wake
// issued after Stop leaves the transfer pending (the loop has exited), and
// Shutdown still reaps the parked process exactly once, without panicking
// or double-resuming.
func TestWakeAfterStopThenShutdown(t *testing.T) {
	e := NewEngine()
	var worker *Proc
	ends := 0
	e.Spawn("worker", func(p *Proc) {
		worker = p
		defer func() { ends++ }()
		for {
			p.Park()
		}
	})
	e.Schedule(1, func() { e.Stop() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Wake(worker) // lands in the lane of a stopped engine
	e.Shutdown()
	if ends != 1 {
		t.Fatalf("worker body ended %d times, want 1 (reaped exactly once)", ends)
	}
	if e.Live() != 0 {
		t.Fatalf("live = %d after shutdown, want 0", e.Live())
	}
}

// TestReentrantScheduleFromFiringEvent pins re-entrancy: an event may
// schedule zero-delay and future events mid-fire, and they interleave in
// exact (at, seq) order with events that were already pending at the same
// timestamps.
func TestReentrantScheduleFromFiringEvent(t *testing.T) {
	e := NewEngine()
	var order []string
	log := func(s string) func() {
		return func() { order = append(order, s) }
	}
	e.Schedule(5, log("pre5")) // same time as the firing event, earlier seq
	e.Schedule(7, log("pre7")) // future timestamp, scheduled first
	e.Schedule(5, func() {
		order = append(order, "mid")
		e.Schedule(0, log("mid+0a"))
		e.Schedule(2, log("mid+2")) // same timestamp as pre7, later seq
		e.Schedule(0, func() {
			order = append(order, "mid+0b")
			e.Schedule(0, log("nested+0"))
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "pre5,mid,mid+0a,mid+0b,nested+0,pre7,mid+2"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

// TestScheduleBelowPeekedMinimum pins the sharded-run pattern: after a
// peek (NextAt) or a run cut short by its limit (RunUntil, RunEvents),
// an event scheduled between the clock and the peeked minimum must still
// fire first. A queue that settled on peek would reject it or fire it
// late.
func TestScheduleBelowPeekedMinimum(t *testing.T) {
	for _, cut := range []string{"NextAt", "RunUntil", "RunEvents"} {
		e := NewEngine()
		var order []string
		e.Schedule(10, func() { order = append(order, "early") })
		e.Schedule(1000, func() { order = append(order, "far") })
		switch cut {
		case "NextAt":
			if err := e.RunEvents(10); err != nil {
				t.Fatal(err)
			}
			if at, ok := e.NextAt(); !ok || at != 1000 {
				t.Fatalf("%s: NextAt = %v, %v; want 1000", cut, at, ok)
			}
		case "RunUntil":
			if err := e.RunUntil(500); err != nil {
				t.Fatal(err)
			}
		case "RunEvents":
			if err := e.RunEvents(500); err != nil {
				t.Fatal(err)
			}
		}
		now := e.Now()
		e.Schedule(1, func() { order = append(order, "inserted") })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(order, ","); got != "early,inserted,far" {
			t.Fatalf("%s (clock %v): fired %q, want early,inserted,far", cut, now, got)
		}
	}
}
