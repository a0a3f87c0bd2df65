package sim

import (
	"testing"

	"mproxy/internal/trace"
)

// nopEvent is scheduled as a package-level func value so the benchmarks
// measure the engine's own cost, not closure allocation at the call site.
func nopEvent() {}

// BenchmarkScheduleFireLane measures the same-timestamp hot path: every
// process handoff in the simulator is a Schedule(0, ...) issued from a
// firing event (Wake), so this chain is the dominant engine pattern.
func BenchmarkScheduleFireLane(b *testing.B) {
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.Schedule(0, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(0, step)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if n < b.N {
		b.Fatalf("ran %d of %d events", n, b.N)
	}
}

// BenchmarkScheduleFireHeap measures the timer path: 64 outstanding
// events at distinct future timestamps, each rescheduling itself, so
// every operation is a real heap push plus a real heap pop.
func BenchmarkScheduleFireHeap(b *testing.B) {
	const outstanding = 64
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n+outstanding <= b.N {
			e.Schedule(Time(1+n%7), step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < outstanding && i < b.N; i++ {
		e.Schedule(Time(1+i), step)
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWakePark measures the process-handoff cycle: a parked process
// woken by an event, running until it parks again. This is the engine
// cost under every Flag.Wait/Queue.Get rendezvous in the model layers.
func BenchmarkWakePark(b *testing.B) {
	e := NewEngine()
	var worker *Proc
	rounds := 0
	e.Spawn("worker", func(p *Proc) {
		worker = p
		for {
			p.Park()
			rounds++
		}
	})
	e.SpawnDaemon("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.Wake(worker)
			p.Hold(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.RunUntil(Time(b.N + 2)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	e.Shutdown()
	if rounds < b.N {
		b.Fatalf("completed %d of %d rounds", rounds, b.N)
	}
}

// BenchmarkHoldFarPending measures a Proc that holds again and again
// while many events wait in one far bucket of the queue: every Hold
// peeks at the queue to decide whether it may run ahead, so the peek
// must not rescan that bucket each time.
func BenchmarkHoldFarPending(b *testing.B) {
	const pending = 4096
	e := NewEngine()
	for i := 0; i < pending; i++ {
		e.Schedule(1<<40+Time(i), nopEvent)
	}
	e.Spawn("holder", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Hold(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTracedScheduleFire is BenchmarkScheduleFireLane with the
// golden-trace digest installed: the cost of one traced occurrence on
// the hot path (schedule + fire, two trace events per operation).
func BenchmarkTracedScheduleFire(b *testing.B) {
	e := NewEngine()
	e.SetTracer(trace.NewDigest())
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.Schedule(0, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(0, step)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
