package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mproxy/internal/trace"
)

// The tests below pin the central contract of the dual execution model:
// a workload is described once, and whether each actor runs as a parked
// coroutine (Proc) or a run-to-completion callback machine (Task) must be
// unobservable in the trace — same events, same (at,seq) order, same
// digest. Communication agents run as Tasks while application processes
// run as Procs, so the two models share every engine; these property
// tests prove the equivalence for adversarial random schedules.

// scriptOp is one step of a generated actor script: hold for d, or block
// until the shared flag reaches need.
type scriptOp struct {
	hold bool
	d    Time
	need int64
}

// genScripts builds w worker scripts of up to l ops each. Waits only ever
// target the ticker-driven shared flag with thresholds the ticker is
// guaranteed to reach, so no assignment of execution modes can deadlock.
func genScripts(rng *rand.Rand, w, l int, maxSignal int64) [][]scriptOp {
	scripts := make([][]scriptOp, w)
	for i := range scripts {
		n := 1 + rng.Intn(l)
		ops := make([]scriptOp, n)
		for j := range ops {
			if rng.Intn(2) == 0 {
				ops[j] = scriptOp{hold: true, d: Time(rng.Intn(500))}
			} else {
				ops[j] = scriptOp{need: 1 + rng.Int63n(maxSignal)}
			}
		}
		scripts[i] = ops
	}
	return scripts
}

// runScripted executes the scripts with worker i running as a Task when
// asTask[i] is set and as a Proc otherwise, returning the trace digest.
// Names and spawn order are mode-independent, so any digest difference is
// a behavioral divergence between the two execution models.
func runScripted(t *testing.T, scripts [][]scriptOp, asTask []bool, ticks int64, tick Time) *trace.Digest {
	t.Helper()
	e := NewEngine()
	d := trace.NewDigest()
	e.SetTracer(d)
	fl := e.NewFlag()
	e.Spawn("ticker", func(p *Proc) {
		for i := int64(0); i < ticks; i++ {
			p.Hold(tick)
			fl.Add(1)
		}
	})
	for w, script := range scripts {
		name := fmt.Sprintf("w%d", w)
		script := script
		if asTask[w] {
			e.SpawnTask(name, func(tk *Task) {
				i := 0
				var step func()
				step = func() {
					for i < len(script) {
						op := script[i]
						i++
						if op.hold {
							tk.Hold(op.d, step)
							return
						}
						if fl.Value() < op.need {
							fl.WaitTask(tk, op.need, step)
							return
						}
					}
				}
				step()
			})
		} else {
			e.Spawn(name, func(p *Proc) {
				for _, op := range script {
					if op.hold {
						p.Hold(op.d)
					} else {
						fl.Wait(p, op.need)
					}
				}
			})
		}
	}
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return d
}

// TestPropertyProcTaskEquivalence drives random schedules under three mode
// assignments — all coroutines, all callback machines, and a random mix —
// and requires bit-identical digests from all three.
func TestPropertyProcTaskEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const ticks = 64
			workers := 1 + rng.Intn(6)
			scripts := genScripts(rng, workers, 12, ticks)
			tick := Time(1 + rng.Intn(100))

			allProc := make([]bool, workers)
			allTask := make([]bool, workers)
			mixed := make([]bool, workers)
			for i := range allTask {
				allTask[i] = true
				mixed[i] = rng.Intn(2) == 0
			}

			dProc := runScripted(t, scripts, allProc, ticks, tick)
			dTask := runScripted(t, scripts, allTask, ticks, tick)
			dMix := runScripted(t, scripts, mixed, ticks, tick)

			if dProc.Sum() != dTask.Sum() || dProc.Count() != dTask.Count() {
				t.Errorf("proc/task digests diverge: proc %s (%d events), task %s (%d events)",
					dProc.Sum(), dProc.Count(), dTask.Sum(), dTask.Count())
			}
			if dProc.Sum() != dMix.Sum() {
				t.Errorf("proc/mixed digests diverge: proc %s, mixed %s (mix %v)",
					dProc.Sum(), dMix.Sum(), mixed)
			}
		})
	}
}

// interleaveRun replays one fuzz input: a parked Proc and a parked Task
// are woken according to the input bytes, with timestamps confined to a
// tiny range so same-instant collisions between the two wake paths are
// the common case rather than the rare one.
func interleaveRun(t *testing.T, data []byte) (*trace.Digest, []trace.Event) {
	t.Helper()
	e := NewEngine()
	d := trace.NewDigest()
	rec := &trace.Recorder{}
	e.SetTracer(trace.Multi(d, rec))
	var pr *Proc
	pr = e.SpawnDaemon("p", func(p *Proc) {
		for {
			p.Park()
		}
	})
	var tk *Task
	tk = e.SpawnTaskDaemon("t", func(tt *Task) {
		var k func()
		k = func() { tt.Park(k) }
		tt.Park(k)
	})
	for _, b := range data {
		at := Time(b & 0x07) // 8 distinct instants: forces ties
		if b&0x08 != 0 {
			e.Schedule(at, func() { e.Wake(pr) })
		} else {
			e.Schedule(at, func() { e.WakeTask(tk) })
		}
	}
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return d, rec.Events()
}

// FuzzProcTaskInterleave mixes Proc wakes and Task callbacks at equal
// timestamps and asserts (1) two runs of the same input produce identical
// digests, and (2) the fired event stream is ordered by (at, seq) — the
// determinism contract both execution models share.
func FuzzProcTaskInterleave(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x08, 0x00, 0x08})
	f.Add([]byte{0x0f, 0x07, 0x0f, 0x07, 0x03, 0x0b})
	f.Add([]byte{1, 9, 1, 9, 1, 9, 2, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		d1, events := interleaveRun(t, data)
		d2, _ := interleaveRun(t, data)
		if d1.Sum() != d2.Sum() || d1.Count() != d2.Count() {
			t.Fatalf("same input, diverging digests: %s (%d events) vs %s (%d events)",
				d1.Sum(), d1.Count(), d2.Sum(), d2.Count())
		}
		var lastAt int64 = -1
		var lastSeq uint64
		for _, ev := range events {
			if ev.Kind != trace.KFire {
				continue
			}
			if ev.At < lastAt {
				t.Fatalf("fire time ran backwards: %d after %d", ev.At, lastAt)
			}
			if ev.At == lastAt && ev.Seq <= lastSeq {
				t.Fatalf("fire order violated FIFO tie-break at t=%d: seq %d after %d",
					ev.At, ev.Seq, lastSeq)
			}
			lastAt, lastSeq = ev.At, ev.Seq
		}
	})
}

// TestShutdownDrainsAllProcs pins the fix for the shutdown goroutine-leak
// window: after Shutdown, every started actor — coroutine or task, daemon
// or not — is dead, and repeated build/shutdown cycles do not accumulate
// goroutines.
func TestShutdownDrainsAllProcs(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for iter := 0; iter < 25; iter++ {
		e := NewEngine()
		var procs []*Proc
		var tasks []*Task
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("p%d", i)
			body := func(p *Proc) {
				for {
					p.Park() // parked forever; only the reaper ends it
				}
			}
			if i%2 == 0 {
				procs = append(procs, e.Spawn(name, body))
			} else {
				procs = append(procs, e.SpawnDaemon(name, body))
			}
		}
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("t%d", i)
			start := func(tk *Task) {
				var k func()
				k = func() { tk.Park(k) }
				tk.Park(k)
			}
			if i%2 == 0 {
				tasks = append(tasks, e.SpawnTask(name, start))
			} else {
				tasks = append(tasks, e.SpawnTaskDaemon(name, start))
			}
		}
		if err := e.RunUntil(Micros(1)); err != nil {
			t.Fatal(err)
		}
		e.Shutdown()
		for i, p := range procs {
			if !p.dead {
				t.Fatalf("iter %d: proc %d still alive after Shutdown", iter, i)
			}
		}
		for i, tk := range tasks {
			if !tk.Dead() {
				t.Fatalf("iter %d: task %d still alive after Shutdown", iter, i)
			}
		}
		if e.live != 0 {
			t.Fatalf("iter %d: %d actors still counted live after Shutdown", iter, e.live)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 || time.Now().After(deadline) {
			if n > baseline+2 {
				t.Fatalf("goroutines leaked across shutdowns: baseline %d, now %d", baseline, n)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAllocPinTaskWake: waking a parked task and dispatching its
// continuation inline must not allocate — this is the run-to-completion
// hot path the agents sit on.
func TestAllocPinTaskWake(t *testing.T) {
	e := NewEngine()
	fired := 0
	var tk *Task
	tk = e.SpawnTaskDaemon("worker", func(tt *Task) {
		var k func()
		k = func() {
			fired++
			tt.Park(k)
		}
		tt.Park(k)
	})
	for i := 0; i < 8; i++ { // warm lane and trace scratch
		e.WakeTask(tk)
	}
	if err := e.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	if fired != 8 {
		t.Fatalf("warmup dispatched %d of 8 wakes", fired)
	}
	pinAllocs(t, "WakeTask+dispatch", func() {
		e.WakeTask(tk)
		if err := e.RunUntil(e.Now()); err != nil {
			t.Fatal(err)
		}
	})
	e.Shutdown()
}

// TestAllocPinTaskHold: the timed self-reschedule (Hold + dispatch) a
// callback machine uses between protocol states must not allocate.
func TestAllocPinTaskHold(t *testing.T) {
	e := NewEngine()
	var tk *Task
	tk = e.SpawnTaskDaemon("timer", func(tt *Task) {
		var k func()
		k = func() { tt.Park(k) }
		tt.Park(k)
	})
	if err := e.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	var k2 func()
	k2 = func() { tk.Park(k2) }
	for i := 0; i < 8; i++ { // warm heap capacity
		tk.Hold(Time(3), k2)
		if err := e.RunUntil(e.Now() + 3); err != nil {
			t.Fatal(err)
		}
	}
	pinAllocs(t, "Task.Hold+dispatch", func() {
		tk.Hold(Time(3), k2)
		if err := e.RunUntil(e.Now() + 3); err != nil {
			t.Fatal(err)
		}
	})
	e.Shutdown()
}
