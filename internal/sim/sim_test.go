package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Micros(0.65) != 650*Nanosecond {
		t.Fatalf("Micros(0.65) = %d, want 650", Micros(0.65))
	}
	if Micros(1.0) != Microsecond {
		t.Fatalf("Micros(1.0) = %d", Micros(1.0))
	}
	if got := (1500 * Nanosecond).Micros(); got != 1.5 {
		t.Fatalf("Micros() = %v, want 1.5", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds() = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{2 * Microsecond, "2us"},
		{3 * Millisecond, "3ms"},
		{Second, "1s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestMicrosNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative duration")
		}
	}()
	Micros(-1)
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v", e.Now())
	}
}

func TestScheduleTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestProcHold(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Spawn("p", func(p *Proc) {
		p.Hold(100)
		at = append(at, p.Now())
		p.Hold(50)
		at = append(at, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at[0] != 100 || at[1] != 150 {
		t.Fatalf("at = %v", at)
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Proc) {
		p.Hold(10)
		order = append(order, "a10")
		p.Hold(20) // resumes at 30
		order = append(order, "a30")
	})
	e.Spawn("b", func(p *Proc) {
		p.Hold(20)
		order = append(order, "b20")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "a10,b20,a30" {
		t.Fatalf("order = %v", order)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) {
		p.Hold(5)
		panic("boom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err = %v", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	f := e.NewFlag()
	e.Spawn("stuck", func(p *Proc) {
		f.Wait(p, 1) // never set
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v", err)
	}
}

func TestFlagWaitAlreadySatisfied(t *testing.T) {
	e := NewEngine()
	f := e.NewFlag()
	f.Add(3)
	done := false
	e.Spawn("p", func(p *Proc) {
		f.Wait(p, 2)
		done = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("waiter did not run")
	}
}

func TestFlagWakesAtThreshold(t *testing.T) {
	e := NewEngine()
	f := e.NewFlag()
	var wokeAt Time
	e.Spawn("waiter", func(p *Proc) {
		f.Wait(p, 2)
		wokeAt = p.Now()
	})
	e.Spawn("setter", func(p *Proc) {
		p.Hold(10)
		f.Add(1)
		p.Hold(10)
		f.Add(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 20 {
		t.Fatalf("woke at %v, want 20", wokeAt)
	}
	if f.Value() != 2 {
		t.Fatalf("flag value %d", f.Value())
	}
}

func TestFlagMultipleWaitersFIFO(t *testing.T) {
	e := NewEngine()
	f := e.NewFlag()
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			f.Wait(p, 1)
			order = append(order, name)
		})
	}
	e.Spawn("setter", func(p *Proc) {
		p.Hold(5)
		f.Add(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "w1,w2,w3" {
		t.Fatalf("order = %v", order)
	}
}

func TestQueueBlockingGet(t *testing.T) {
	e := NewEngine()
	var got string
	var at Time
	q := NewFIFO[string](e, "queue")
	e.Spawn("consumer", func(p *Proc) {
		got = q.Get(p)
		at = p.Now()
	})
	e.Spawn("producer", func(p *Proc) {
		p.Hold(42)
		q.Put("hello")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" || at != 42 {
		t.Fatalf("got %v at %v", got, at)
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	e := NewEngine()
	q := NewFIFO[int](e, "queue")
	for i := 0; i < 5; i++ {
		q.Put(i)
	}
	var got []int
	e.Spawn("c", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestQueueTryGet(t *testing.T) {
	e := NewEngine()
	q := NewFIFO[int](e, "queue")
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	q.Put(7)
	if q.Len() != 1 {
		t.Fatalf("Len = %d", q.Len())
	}
	v, ok := q.TryGet()
	if !ok || v != 7 {
		t.Fatalf("TryGet = %v, %v", v, ok)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("server")
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Use(p, 10)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(finish) != 3 || finish[0] != 10 || finish[1] != 20 || finish[2] != 30 {
		t.Fatalf("finish = %v", finish)
	}
	if r.BusyTime() != 30 {
		t.Fatalf("busy = %v", r.BusyTime())
	}
	if r.Served() != 3 {
		t.Fatalf("served = %d", r.Served())
	}
	if u := r.Utilization(30); u != 1.0 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestResourceMeanWait(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("server")
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Use(p, 10)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Waits are 0, 10, 20 -> mean 10.
	if w := r.MeanWait(); w != 10 {
		t.Fatalf("mean wait = %v", w)
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Release()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	hits := 0
	e.Schedule(10, func() { hits++ })
	e.Schedule(100, func() { hits++ })
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if hits != 1 || e.Now() != 50 {
		t.Fatalf("hits=%d now=%v", hits, e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hits != 2 || e.Now() != 100 {
		t.Fatalf("hits=%d now=%v", hits, e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	hits := 0
	e.Schedule(10, func() { hits++; e.Stop() })
	e.Schedule(20, func() { hits++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Two identical simulations with contended resources must produce
	// identical traces: this is the property that distinguishes this DES
	// from wall-clock execution-driven simulation.
	run := func() string {
		e := NewEngine()
		r := e.NewResource("r")
		q := NewFIFO[int](e, "queue")
		var b strings.Builder
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				p.Hold(Time(i * 3))
				r.Use(p, 7)
				q.Put(i)
				fmt.Fprintf(&b, "%d@%d;", i, p.Now())
			})
		}
		e.Spawn("drain", func(p *Proc) {
			for i := 0; i < 4; i++ {
				v := q.Get(p)
				fmt.Fprintf(&b, "d%v@%d;", v, p.Now())
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, bb := run(), run()
	if a != bb {
		t.Fatalf("nondeterministic:\n%s\n%s", a, bb)
	}
}

func TestPropertyHoldAdditive(t *testing.T) {
	// Property: splitting a hold into arbitrary chunks ends at the same time.
	f := func(chunks []uint16) bool {
		if len(chunks) > 64 {
			chunks = chunks[:64]
		}
		var total Time
		for _, c := range chunks {
			total += Time(c)
		}
		e := NewEngine()
		var end Time
		e.Spawn("p", func(p *Proc) {
			for _, c := range chunks {
				p.Hold(Time(c))
			}
			end = p.Now()
		})
		if err := e.Run(); err != nil {
			return false
		}
		return end == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyResourceConservation(t *testing.T) {
	// Property: for any set of (arrival, service) pairs, total busy time
	// equals the sum of service times, and completions equal arrivals.
	f := func(jobs []struct{ A, S uint16 }) bool {
		if len(jobs) > 32 {
			jobs = jobs[:32]
		}
		e := NewEngine()
		r := e.NewResource("r")
		var want Time
		for i, j := range jobs {
			arr, svc := Time(j.A), Time(j.S)
			want += svc
			e.Spawn(fmt.Sprintf("j%d", i), func(p *Proc) {
				p.Hold(arr)
				r.Use(p, svc)
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return r.BusyTime() == want && r.Served() == int64(len(jobs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnDaemonExcludedFromDeadlock(t *testing.T) {
	e := NewEngine()
	q := NewFIFO[int](e, "queue")
	served := 0
	// A server loop that would otherwise count as deadlocked once its
	// clients finish.
	e.SpawnDaemon("server", func(p *Proc) {
		for {
			q.Get(p)
			served++
		}
	})
	e.Spawn("client", func(p *Proc) {
		q.Put(1)
		q.Put(2)
		p.Hold(10)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("daemon tripped deadlock detection: %v", err)
	}
	if served != 2 {
		t.Fatalf("served = %d", served)
	}
	if e.Live() != 0 {
		t.Fatalf("live = %d (daemons must not count)", e.Live())
	}
}

func TestDaemonPanicStillPropagates(t *testing.T) {
	e := NewEngine()
	e.SpawnDaemon("bad", func(p *Proc) {
		p.Hold(5)
		panic("daemon boom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "daemon boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestShutdownReapsBlockedGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e := NewEngine()
		q := NewFIFO[int](e, "queue")
		e.SpawnDaemon("server", func(p *Proc) {
			for {
				q.Get(p)
			}
		})
		e.Spawn("client", func(p *Proc) {
			q.Put(1)
			p.Hold(5)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	after := runtime.NumGoroutine()
	if after > before+5 {
		t.Fatalf("goroutines leaked: %d -> %d", before, after)
	}
}

func TestShutdownWithUnstartedProc(t *testing.T) {
	// Stop before the spawn event runs: Shutdown must not hang on the
	// never-started process.
	e := NewEngine()
	e.Stop()
	e.Spawn("never", func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
