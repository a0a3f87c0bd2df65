package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mproxy/internal/trace"
)

// The run-ahead equivalence harness. A seeded scenario mixes Procs and
// Tasks that hold, hand off through Wake and a Flag, share a Resource,
// and (sometimes) Stop the run, which the driver advances in RunUntil
// windows. The scenario runs twice: once as written, so every Proc hold
// takes Hold's run-ahead whenever it applies, and once with every Proc
// hold forced onto hold, the scheduled path Hold falls back to. The two
// runs must be indistinguishable.

// raOp is one step of an actor's script.
type raOp struct {
	kind int  // raHold .. raStop
	d    Time // hold or resource duration
	need int64
}

const (
	raHold = iota // hold for d
	raUse         // use the resource for d (Procs only; Tasks hold)
	raAdd         // add 1 to the flag
	raWait        // wait until the flag reaches need
	raPark        // park until another actor's raWake (Procs only; Tasks hold)
	raWake        // wake the longest-parked actor, if any
	raStop        // stop the run
)

// raScenario is one generated scenario: per-actor scripts, which actors
// are Tasks, and the RunUntil window length.
type raScenario struct {
	scripts [][]raOp
	asTask  []bool
	window  Time
}

func genRAScenario(rng *rand.Rand) raScenario {
	var sc raScenario
	n := 2 + rng.Intn(5)
	adds := 0
	for a := 0; a < n; a++ {
		task := rng.Intn(3) == 0
		var script []raOp
		for i, l := 0, 3+rng.Intn(12); i < l; i++ {
			var op raOp
			switch r := rng.Intn(20); {
			case r < 8:
				// Mostly short holds, so run-ahead both applies and is
				// refused often; zero holds exercise the same-instant rule.
				op = raOp{kind: raHold, d: Time([]int{0, 1, 3, 7, 50, 400}[rng.Intn(6)])}
			case r < 11:
				op = raOp{kind: raUse, d: Time(1 + rng.Intn(20))}
			case r < 13:
				op = raOp{kind: raAdd}
				adds++
			case r < 15:
				op = raOp{kind: raWait, need: int64(rng.Intn(adds + 2))}
			case r < 17:
				op = raOp{kind: raPark}
			case r < 19:
				op = raOp{kind: raWake}
			default:
				if rng.Intn(4) == 0 {
					op = raOp{kind: raStop}
				} else {
					op = raOp{kind: raHold, d: Time(rng.Intn(30))}
				}
			}
			script = append(script, op)
		}
		sc.scripts = append(sc.scripts, script)
		sc.asTask = append(sc.asTask, task)
	}
	sc.window = Time(5 + rng.Intn(200))
	return sc
}

// raStep is one logged script step: the actor reached step at time at.
type raStep struct {
	at   Time
	step int
}

// raResult is everything a run exposes.
type raResult struct {
	logs      [][]raStep
	nows      []Time // Now after every RunUntil window
	scheduled uint64
	pending   int
	events    []trace.Event
	err       string
	ranAhead  int // holds that took the run-ahead path
}

// runRAScenario runs sc; scheduled forces every Proc hold (including the
// one inside Resource.Use) onto the scheduled path.
func runRAScenario(sc raScenario, scheduled bool) raResult {
	e := NewEngine()
	rec := &trace.Recorder{}
	e.SetTracer(rec)
	fl := e.NewFlag()
	res := e.NewResource("res")
	var parked []*Proc
	out := raResult{logs: make([][]raStep, len(sc.scripts))}
	hold := func(p *Proc, d Time) {
		if scheduled {
			p.hold(d)
			return
		}
		if e.canRunAhead(d) {
			out.ranAhead++
		}
		p.Hold(d)
	}
	for a, script := range sc.scripts {
		a, script := a, script
		name := fmt.Sprintf("a%d", a)
		logStep := func(i int) { out.logs[a] = append(out.logs[a], raStep{e.Now(), i}) }
		if sc.asTask[a] {
			e.SpawnTask(name, func(t *Task) {
				i := 0
				var next func()
				next = func() {
					for i < len(script) {
						op := script[i]
						logStep(i)
						i++
						switch op.kind {
						case raHold, raUse, raPark:
							t.Hold(op.d, next)
							return
						case raAdd:
							fl.Add(1)
						case raWait:
							if fl.Value() < op.need {
								fl.WaitTask(t, op.need, next)
								return
							}
						case raWake:
							if len(parked) > 0 {
								e.Wake(parked[0])
								parked = parked[1:]
							}
						case raStop:
							e.Stop()
						}
					}
				}
				next()
			})
			continue
		}
		e.Spawn(name, func(p *Proc) {
			for i, op := range script {
				logStep(i)
				switch op.kind {
				case raHold:
					hold(p, op.d)
				case raUse:
					if scheduled {
						res.Acquire(p)
						p.hold(op.d)
						res.Release()
					} else {
						res.Use(p, op.d)
					}
				case raAdd:
					fl.Add(1)
				case raWait:
					fl.Wait(p, op.need)
				case raPark:
					parked = append(parked, p)
					p.Park()
				case raWake:
					if len(parked) > 0 {
						e.Wake(parked[0])
						parked = parked[1:]
					}
				case raStop:
					e.Stop()
				}
			}
		})
	}
	for w := sc.window; e.Pending() > 0 && w < 1<<20; w += sc.window {
		if err := e.RunUntil(w); err != nil {
			out.err = err.Error()
			break
		}
		out.nows = append(out.nows, e.Now())
		if e.stopped {
			break
		}
	}
	out.scheduled = e.Scheduled()
	out.pending = e.Pending()
	e.Shutdown()
	out.events = rec.Events()
	return out
}

// TestPropertyRunAheadExact holds Hold's run-ahead to the scheduled path
// it replaces: per-actor (time, step) logs, the clock after every
// RunUntil window, Scheduled, the pending count and the full trace stream
// must all be identical, over many seeded scenarios.
func TestPropertyRunAheadExact(t *testing.T) {
	ranAhead := 0
	for seed := int64(1); seed <= 400; seed++ {
		sc := genRAScenario(rand.New(rand.NewSource(seed)))
		fast := runRAScenario(sc, false)
		slow := runRAScenario(sc, true)
		ranAhead += fast.ranAhead
		fast.ranAhead = 0
		if !reflect.DeepEqual(fast, slow) {
			for a := range fast.logs {
				if !reflect.DeepEqual(fast.logs[a], slow.logs[a]) {
					t.Errorf("seed %d actor %d: run-ahead log %v, scheduled %v", seed, a, fast.logs[a], slow.logs[a])
				}
			}
			t.Fatalf("seed %d: run-ahead diverges from the scheduled path:\nnows %v vs %v\nscheduled %d vs %d, pending %d vs %d, %d vs %d events, err %q vs %q",
				seed, fast.nows, slow.nows, fast.scheduled, slow.scheduled, fast.pending, slow.pending,
				len(fast.events), len(slow.events), fast.err, slow.err)
		}
	}
	if ranAhead == 0 {
		t.Fatal("no scenario took the run-ahead path: the property checks nothing")
	}
}
