package machine

import (
	"strings"
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/sim"
)

// withEngine runs fn on a fresh engine in a subtest named for the
// agents' execution model, the run-to-completion task.
func withEngine(t *testing.T, fn func(t *testing.T, eng *sim.Engine)) {
	t.Run("task", func(t *testing.T) { fn(t, sim.NewEngine()) })
}

// holdWork returns a Work that occupies the agent for d and then calls
// then (if non-nil) with the completion time.
func holdWork(d sim.Time, then func(now sim.Time)) Work {
	return Work{TFn: func(a *Agent, _ any) {
		a.Task().Hold(d, func() {
			if then != nil {
				then(a.eng.Now())
			}
			a.WorkDone()
		})
	}}
}

// funcSink adapts a function to PacketSink for link tests.
type funcSink func(arg any, fate PacketFate)

func (f funcSink) DeliverPacket(arg any, fate PacketFate) { f(arg, fate) }

// at returns a sink that appends each arrival instant to *arrivals.
func at(eng *sim.Engine, arrivals *[]sim.Time) funcSink {
	return func(any, PacketFate) { *arrivals = append(*arrivals, eng.Now()) }
}

// discard is a sink that drops every delivery.
var discard = funcSink(func(any, PacketFate) {})

func TestClusterTopology(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Config{Nodes: 4, ProcsPerNode: 4}, arch.MP1)
	if len(c.Nodes) != 4 || len(c.CPUs) != 16 {
		t.Fatalf("nodes=%d cpus=%d", len(c.Nodes), len(c.CPUs))
	}
	// Rank 5 is slot 1 of node 1.
	cpu := c.CPUs[5]
	if cpu.Node.ID != 1 || cpu.Slot != 1 || cpu.Rank != 5 {
		t.Fatalf("cpu5 = %+v", cpu)
	}
	if c.Nodes[0].Agent == nil {
		t.Fatal("proxy arch must have node agents")
	}
}

func TestSyscallArchHasNoAgent(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Config{Nodes: 2, ProcsPerNode: 1}, arch.SW1)
	if c.Nodes[0].Agent != nil {
		t.Fatal("SW1 must not have an agent")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.NewEngine(), Config{Nodes: 0, ProcsPerNode: 1}, arch.HW1)
}

// TestConfigValidate pins the validation split: zero means "unset, use
// the default", negative is always an explicit error (it used to fall
// through the <= 0 default paths silently), and unknown scheduling
// policies are rejected by name.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string // substring of the error; empty means valid
	}{
		{Config{Nodes: 2, ProcsPerNode: 1}, ""},
		{Config{Nodes: 2, ProcsPerNode: 1, ProxiesPerNode: 2, ProxySched: "steal"}, ""},
		{Config{Nodes: 2, ProcsPerNode: 1, ProxiesPerNode: 0}, ""}, // unset, defaults to 1
		{Config{Nodes: -1, ProcsPerNode: 1}, "negative Nodes"},
		{Config{Nodes: 2, ProcsPerNode: -3}, "negative ProcsPerNode"},
		{Config{Nodes: 2, ProcsPerNode: 1, ProxiesPerNode: -2}, "negative ProxiesPerNode"},
		{Config{Nodes: 0, ProcsPerNode: 1}, "bad config"},
		{Config{Nodes: 2, ProcsPerNode: 0}, "bad config"},
		{Config{Nodes: 2, ProcsPerNode: 1, ProxySched: "lottery"}, "unknown sched policy"},
		{Config{Nodes: 8, ProcsPerNode: 1, SimShards: 2}, ""},
		{Config{Nodes: 8, ProcsPerNode: 1, SimShards: 8}, ""}, // one node per shard is fine
		{Config{Nodes: 8, ProcsPerNode: 1, SimShards: -2}, "negative SimShards"},
		{Config{Nodes: 8, ProcsPerNode: 1, SimShards: 3}, "not divisible by SimShards"},
		{Config{Nodes: 4, ProcsPerNode: 1, SimShards: 8}, "SimShards 8 exceeds Nodes 4"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("Validate(%+v) = %v, want nil", c.cfg, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want error containing %q", c.cfg, err, c.want)
		}
	}
}

// TestNewShardedPlacement checks the contiguous node→shard blocks: every
// node's resources (links, agents) land on its owner shard's engine, and
// the sequential constructor refuses sharded configs outright.
func TestNewShardedPlacement(t *testing.T) {
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	c := NewSharded(engs, Config{Nodes: 4, ProcsPerNode: 1, SimShards: 2}, arch.MP1)
	if !c.Sharded() {
		t.Fatal("cluster not sharded")
	}
	for n, nd := range c.Nodes {
		want := engs[n/2]
		if nd.Eng != want || c.EngOf(n) != want {
			t.Errorf("node %d on wrong engine (shard %d expected)", n, n/2)
		}
	}
	if c.Eng != engs[0] {
		t.Error("control engine must be shard 0's")
	}
	for i := range engs {
		engs[i].Shutdown()
	}
}

// TestNewRejectsShardedConfig: a SimShards>1 config must be built with
// NewSharded; New panics before any model state (or goroutine) exists.
func TestNewRejectsShardedConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.NewEngine(), Config{Nodes: 4, ProcsPerNode: 1, SimShards: 2}, arch.MP1)
}

// TestNewShardedValidatesFirst: an invalid partition panics out of
// NewSharded before any agent is constructed (validation must precede
// every spawn).
func TestNewShardedValidatesFirst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine(), sim.NewEngine()}
	NewSharded(engs, Config{Nodes: 4, ProcsPerNode: 1, SimShards: 3}, arch.MP1)
}

// TestNegativeProxiesPanics: before Config.Validate existed, a negative
// ProxiesPerNode silently became the 1-proxy default; it must now refuse
// to build.
func TestNegativeProxiesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.NewEngine(), Config{Nodes: 1, ProcsPerNode: 1, ProxiesPerNode: -1}, arch.MP1)
}

func TestCPUComputeWithoutInterrupts(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Config{Nodes: 1, ProcsPerNode: 1}, arch.SW1)
	cpu := c.CPUs[0]
	var end sim.Time
	eng.Spawn("app", func(p *sim.Proc) {
		cpu.Compute(p, 100)
		end = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 100 || cpu.BusyTime() != 100 {
		t.Fatalf("end=%v busy=%v", end, cpu.BusyTime())
	}
}

func TestCPUInterruptExtendsCompute(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Config{Nodes: 1, ProcsPerNode: 1}, arch.SW1)
	cpu := c.CPUs[0]
	var end sim.Time
	eng.Spawn("app", func(p *sim.Proc) {
		cpu.Compute(p, 100)
		end = p.Now()
	})
	eng.Schedule(50, func() { cpu.Interrupt(30) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 130 {
		t.Fatalf("end = %v, want 130 (100 compute + 30 stolen)", end)
	}
	if cpu.Stolen() != 30 {
		t.Fatalf("stolen = %v", cpu.Stolen())
	}
}

func TestCPUInterruptWhileIdleIsFree(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Config{Nodes: 1, ProcsPerNode: 1}, arch.SW1)
	cpu := c.CPUs[0]
	var end sim.Time
	eng.Spawn("app", func(p *sim.Proc) {
		p.Hold(50) // blocked, not computing
		cpu.Compute(p, 10)
		end = p.Now()
	})
	eng.Schedule(20, func() { cpu.Interrupt(30) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 60 {
		t.Fatalf("end = %v, want 60 (idle-time interrupt costs the app nothing)", end)
	}
	if cpu.Stolen() != 30 {
		t.Fatalf("stolen = %v", cpu.Stolen())
	}
}

func TestCPUMultipleInterrupts(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Config{Nodes: 1, ProcsPerNode: 1}, arch.SW1)
	cpu := c.CPUs[0]
	var end sim.Time
	eng.Spawn("app", func(p *sim.Proc) {
		cpu.Compute(p, 100)
		end = p.Now()
	})
	eng.Schedule(10, func() { cpu.Interrupt(5) })
	eng.Schedule(104, func() { cpu.Interrupt(5) }) // lands in the extension
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 110 {
		t.Fatalf("end = %v, want 110", end)
	}
}

func TestLinkSerialization(t *testing.T) {
	eng := sim.NewEngine()
	// 100 MB/s = 100 bytes/us; latency 2 us.
	l := NewLink(eng, "l", 100, 2*sim.Microsecond)
	var arrivals []sim.Time
	// Two back-to-back 1000-byte packets: serialization 10 us each.
	l.SendToSink(1000, at(eng, &arrivals), nil)
	l.SendToSink(1000, at(eng, &arrivals), nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want0, want1 := sim.Micros(12), sim.Micros(22)
	if arrivals[0] != want0 || arrivals[1] != want1 {
		t.Fatalf("arrivals = %v, want [%v %v]", arrivals, want0, want1)
	}
	if l.Packets() != 2 || l.Bytes() != 2000 {
		t.Fatalf("packets=%d bytes=%d", l.Packets(), l.Bytes())
	}
	if u := l.Utilization(sim.Micros(20)); u != 1.0 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestLinkIdleGapNoSerializationCarry(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, "l", 100, 0)
	var arrivals []sim.Time
	l.SendToSink(100, discard, nil) // arrives at 1 us
	eng.Schedule(sim.Micros(10), func() {
		l.SendToSink(100, at(eng, &arrivals), nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 1 || arrivals[0] != sim.Micros(11) {
		t.Fatalf("second arrival = %v, want 11us", arrivals)
	}
}

func TestAgentExecutesFIFOWithNotice(t *testing.T) {
	withEngine(t, func(t *testing.T, eng *sim.Engine) {
		a := NewAgent(eng, "proxy", sim.Micros(3))
		var done []sim.Time
		eng.Spawn("client", func(p *sim.Proc) {
			a.Submit(holdWork(sim.Micros(5), func(now sim.Time) { done = append(done, now) }))
			a.Submit(holdWork(sim.Micros(5), func(now sim.Time) { done = append(done, now) }))
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		// First item: notice 3 + service 5 = 8. Second queued behind: no extra
		// notice, finishes at 13.
		if len(done) != 2 || done[0] != sim.Micros(8) || done[1] != sim.Micros(13) {
			t.Fatalf("done = %v", done)
		}
		if a.Served() != 2 || a.BusyTime() != sim.Micros(10) {
			t.Fatalf("served=%d busy=%v", a.Served(), a.BusyTime())
		}
	})
}

func TestAgentIdleThenNewNotice(t *testing.T) {
	withEngine(t, func(t *testing.T, eng *sim.Engine) {
		a := NewAgent(eng, "proxy", sim.Micros(3))
		var done []sim.Time
		eng.Spawn("client", func(p *sim.Proc) {
			a.Submit(holdWork(sim.Micros(1), func(now sim.Time) { done = append(done, now) }))
			p.Hold(sim.Micros(100))
			a.Submit(holdWork(sim.Micros(1), func(now sim.Time) { done = append(done, now) }))
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		// Both items find the agent idle: each pays the notice delay.
		if done[0] != sim.Micros(4) || done[1] != sim.Micros(104) {
			t.Fatalf("done = %v", done)
		}
		if w := a.MeanWait(); w != sim.Micros(3) {
			t.Fatalf("mean wait = %v", w)
		}
	})
}

func TestAgentUtilization(t *testing.T) {
	withEngine(t, func(t *testing.T, eng *sim.Engine) {
		a := NewAgent(eng, "proxy", 0)
		eng.Spawn("client", func(p *sim.Proc) {
			a.Submit(holdWork(sim.Micros(25), nil))
			p.Hold(sim.Micros(100))
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if u := a.Utilization(sim.Micros(100)); u != 0.25 {
			t.Fatalf("utilization = %v", u)
		}
	})
}

func TestAgentShutdown(t *testing.T) {
	withEngine(t, func(t *testing.T, eng *sim.Engine) {
		a := NewAgent(eng, "proxy", 0)
		ran := false
		eng.Spawn("client", func(p *sim.Proc) {
			a.Submit(Work{TFn: func(ag *Agent, _ any) { ran = true; ag.WorkDone() }})
			p.Hold(1)
			a.Shutdown()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatal("work did not run")
		}
	})
}

func TestLinkSendOverlapped(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, "l", 100, 2*sim.Microsecond)
	var arrivals []sim.Time
	// Overlapped sends pay only the wire latency (serialization was paid
	// at the DMA engine) but still count toward traffic stats.
	l.SendOverlappedToSink(4096, at(eng, &arrivals), nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 1 || arrivals[0] != 2*sim.Microsecond {
		t.Fatalf("arrival = %v, want 2us", arrivals)
	}
	if l.Packets() != 1 || l.Bytes() != 4096 {
		t.Fatalf("stats: %d pkts %d bytes", l.Packets(), l.Bytes())
	}
}

func TestLinkOccupyBlocksSender(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, "dma", 100, 0) // 100 B/us
	var end sim.Time
	eng.Spawn("agent", func(p *sim.Proc) {
		l.Occupy(p, 1000) // 10 us
		l.Occupy(p, 500)  // 5 us
		end = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if end != sim.Micros(15) {
		t.Fatalf("end = %v, want 15us", end)
	}
}

func TestMultiProxyTopology(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Config{Nodes: 2, ProcsPerNode: 4, ProxiesPerNode: 2}, arch.MP1)
	nd := c.Nodes[0]
	if len(nd.Agents) != 2 {
		t.Fatalf("agents = %d", len(nd.Agents))
	}
	if nd.Agent != nd.Agents[0] {
		t.Fatal("primary agent must alias Agents[0]")
	}
	// Slots partition across proxies round-robin.
	if nd.AgentFor(0) != nd.Agents[0] || nd.AgentFor(1) != nd.Agents[1] ||
		nd.AgentFor(2) != nd.Agents[0] {
		t.Fatal("slot partition wrong")
	}
	// Custom hardware keeps a single adapter regardless.
	c2 := New(eng, Config{Nodes: 1, ProcsPerNode: 2, ProxiesPerNode: 3}, arch.HW1)
	if len(c2.Nodes[0].Agents) != 1 {
		t.Fatalf("HW agents = %d", len(c2.Nodes[0].Agents))
	}
}
