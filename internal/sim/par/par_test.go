package par_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"mproxy/internal/sim"
	"mproxy/internal/sim/par"
)

// TestWindowedPingPong bounces an event between two shard engines through
// the mailbox layer and checks the same schedule a single sequential
// engine produces: alternating arrivals L apart, with both shard clocks
// aligned to the global last event afterwards.
func TestWindowedPingPong(t *testing.T) {
	const L = sim.Time(100)
	const rounds = 50
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	s, err := par.New(engs, L)
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []sim.Time
	var bounce func(shard int, n int) func()
	bounce = func(shard int, n int) func() {
		return func() {
			at := engs[shard].Now()
			arrivals = append(arrivals, at)
			if n == rounds {
				return
			}
			s.Post(shard, 1-shard, at+L, bounce(1-shard, n+1))
		}
	}
	engs[0].Schedule(7, bounce(0, 1))
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != rounds {
		t.Fatalf("got %d arrivals, want %d", len(arrivals), rounds)
	}
	for i, at := range arrivals {
		if want := sim.Time(7) + sim.Time(i)*L; at != want {
			t.Fatalf("arrival %d at %v, want %v", i, at, want)
		}
	}
	last := arrivals[len(arrivals)-1]
	for i, e := range engs {
		if e.Now() != last {
			t.Errorf("shard %d clock %v, want aligned to %v", i, e.Now(), last)
		}
	}
	if st.Windows != rounds {
		t.Errorf("windows = %d, want %d (one bounce per window)", st.Windows, rounds)
	}
	if st.Crossings != rounds-1 {
		t.Errorf("crossings = %d, want %d", st.Crossings, rounds-1)
	}
	for i := range engs {
		engs[i].Shutdown()
	}
}

// TestDeterministicMerge floods one destination shard with same-timestamp
// crossings from several sources and requires the canonical
// (at, srcShard, push order) delivery order — twice, so the order is also
// proven stable across runs.
func TestDeterministicMerge(t *testing.T) {
	const L = sim.Time(10)
	run := func() []string {
		engs := make([]*sim.Engine, 4)
		for i := range engs {
			engs[i] = sim.NewEngine()
		}
		s, err := par.New(engs, L)
		if err != nil {
			t.Fatal(err)
		}
		var order []string
		// Shards 1..3 each fire at t=0 and post two crossings to shard 0,
		// all arriving at the same instant t=L.
		for src := 1; src < 4; src++ {
			src := src
			engs[src].Schedule(0, func() {
				for k := 0; k < 2; k++ {
					tag := fmt.Sprintf("s%d.%d", src, k)
					s.Post(src, 0, L, func() { order = append(order, tag) })
				}
			})
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for i := range engs {
			engs[i].Shutdown()
		}
		return order
	}
	want := []string{"s1.0", "s1.1", "s2.0", "s2.1", "s3.0", "s3.1"}
	first := run()
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("merge order = %v, want %v", first, want)
	}
	if second := run(); !reflect.DeepEqual(second, first) {
		t.Fatalf("repeat run order = %v, first run %v", second, first)
	}
}

// TestBarrierModes runs the same 4-shard crossing pattern under the
// spinning barrier (every shard has a core) and the blocking one (more
// shards than GOMAXPROCS): the delivery order and window count must not
// depend on how the shards wait.
func TestBarrierModes(t *testing.T) {
	const L = sim.Time(10)
	run := func(procs int) ([4][]string, int64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		engs := make([]*sim.Engine, 4)
		for i := range engs {
			engs[i] = sim.NewEngine()
		}
		s, err := par.New(engs, L)
		if err != nil {
			t.Fatal(err)
		}
		// Each shard logs only the events it runs itself, so the logs
		// need no synchronization beyond the barrier's.
		var logs [4][]string
		// A token travels round the ring for 40 hops, one hop per window;
		// every hop off shard 0 also posts a same-instant crossing to
		// shard 0.
		var hop func(shard, n int) func()
		hop = func(shard, n int) func() {
			return func() {
				at := engs[shard].Now()
				logs[shard] = append(logs[shard], fmt.Sprintf("hop%d@%d", n, at))
				if n == 40 {
					return
				}
				next := (shard + 1) % len(engs)
				s.Post(shard, next, at+L, hop(next, n+1))
				if shard != 0 {
					tag := fmt.Sprintf("x%d.%d", shard, n)
					s.Post(shard, 0, at+L, func() { logs[0] = append(logs[0], tag) })
				}
			}
		}
		engs[0].Schedule(3, hop(0, 1))
		st, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i := range engs {
			engs[i].Shutdown()
		}
		return logs, st.Windows
	}
	spinLogs, spinWindows := run(4)
	blockLogs, blockWindows := run(1)
	if !reflect.DeepEqual(spinLogs, blockLogs) || spinWindows != blockWindows {
		t.Fatalf("spin barrier: %d windows, logs %v\nblocking barrier: %d windows, logs %v",
			spinWindows, spinLogs, blockWindows, blockLogs)
	}
	if spinWindows != 40 {
		t.Fatalf("windows = %d, want 40 (one hop per window)", spinWindows)
	}
}

// TestLookaheadViolation pins the guard: a crossing timed inside the
// current window (closer than L) must panic rather than silently corrupt
// causality.
func TestLookaheadViolation(t *testing.T) {
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	s, err := par.New(engs, 100)
	if err != nil {
		t.Fatal(err)
	}
	engs[0].Schedule(50, func() {
		s.Post(0, 1, engs[0].Now()+1, func() {}) // violates L=100
	})
	// Shard 1 executes up to t=90 inside the same window, so the t=51
	// crossing lands behind its clock at the exchange.
	engs[1].Schedule(0, func() {})
	engs[1].Schedule(90, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected lookahead-violation panic")
		}
		for i := range engs {
			engs[i].Shutdown()
		}
	}()
	_, _ = s.Run()
}

// TestNewValidation covers the constructor's error paths.
func TestNewValidation(t *testing.T) {
	if _, err := par.New(nil, 10); err == nil {
		t.Error("expected error for zero engines")
	}
	if _, err := par.New([]*sim.Engine{sim.NewEngine()}, 0); err == nil {
		t.Error("expected error for non-positive lookahead")
	}
}

// TestStatsShape checks the per-shard accounting arrays exist and the
// skew/summary helpers behave.
func TestStatsShape(t *testing.T) {
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	s, err := par.New(engs, 10)
	if err != nil {
		t.Fatal(err)
	}
	engs[0].Schedule(1, func() {})
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || len(st.Events) != 2 || len(st.BusyNs) != 2 || len(st.BlockedNs) != 2 {
		t.Fatalf("stats shape wrong: %+v", st)
	}
	if st.String() == "" {
		t.Error("empty stats summary")
	}
	if st.MaxSkewNs() < 0 {
		t.Error("negative skew")
	}
	for i := range engs {
		engs[i].Shutdown()
	}
}
