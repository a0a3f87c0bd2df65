package machine

import (
	"testing"

	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// scriptPlane is a FaultPlane scripted per packet sequence number.
type scriptPlane struct {
	packet map[uint64]PacketFate
	agent  map[int64]AgentFate
}

func (s scriptPlane) PacketFate(link string, node int, seq uint64, now sim.Time) PacketFate {
	return s.packet[seq]
}

func (s scriptPlane) AgentFault(agent string, item int64, now sim.Time) AgentFate {
	return s.agent[item]
}

func TestLinkFaultDispatch(t *testing.T) {
	eng := sim.NewEngine()
	rec := &trace.Recorder{}
	eng.SetTracer(rec)
	l := NewLink(eng, "test.out", 100, 10*sim.Microsecond)
	l.SetFaultPlane(scriptPlane{packet: map[uint64]PacketFate{
		1: {Drop: true},
		2: {Down: true},
		3: {Corrupt: true, CorruptBit: 5},
		4: {Dup: true, DupDelay: 3 * sim.Microsecond},
		5: {Delay: 40 * sim.Microsecond},
	}}, 0)

	type arrival struct {
		seq  uint64
		at   sim.Time
		fate PacketFate
	}
	var got []arrival
	sink := funcSink(func(arg any, f PacketFate) {
		got = append(got, arrival{arg.(uint64), eng.Now(), f})
	})
	for seq := uint64(0); seq < 6; seq++ {
		l.SendToSink(0, sink, seq)
	}
	eng.Spawn("idle", func(p *sim.Proc) {})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	// 0 clean, 1 dropped, 2 down, 3 corrupt, 4 twice, 5 delayed last.
	want := []struct {
		seq     uint64
		corrupt bool
	}{{0, false}, {3, true}, {4, false}, {4, false}, {5, false}}
	if len(got) != len(want) {
		t.Fatalf("arrivals = %+v, want %d", got, len(want))
	}
	for i, w := range want {
		if got[i].seq != w.seq || got[i].fate.Corrupt != w.corrupt {
			t.Errorf("arrival %d = %+v, want seq %d corrupt %v", i, got[i], w.seq, w.corrupt)
		}
	}
	if got[3].at-got[2].at != 3*sim.Microsecond {
		t.Errorf("duplicate spacing = %v, want 3us", got[3].at-got[2].at)
	}
	if got[4].at <= got[3].at {
		t.Error("reordered packet was not overtaken")
	}
	if l.Lost() != 3 {
		t.Errorf("Lost() = %d, want 3 (drop + down + corrupt)", l.Lost())
	}

	var drops, downs int
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.KDrop:
			drops++
			if ev.Comp != "test.out" || ev.Arg != 1 {
				t.Errorf("drop event = %+v", ev)
			}
		case trace.KLinkDown:
			downs++
			if ev.Arg != 2 {
				t.Errorf("link-down event = %+v", ev)
			}
		}
	}
	if drops != 1 || downs != 1 {
		t.Errorf("drop/down events = %d/%d, want 1/1", drops, downs)
	}
}

func TestLinkWithoutPlaneIsClean(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, "clean.out", 100, sim.Microsecond)
	n := 0
	for i := 0; i < 10; i++ {
		l.SendToSink(64, funcSink(func(_ any, f PacketFate) {
			if f != (PacketFate{}) {
				t.Errorf("clean link delivered fate %+v", f)
			}
			n++
		}), nil)
	}
	eng.Spawn("idle", func(p *sim.Proc) {})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 10 || l.Lost() != 0 {
		t.Errorf("delivered %d (lost %d), want 10 (0)", n, l.Lost())
	}
}

func TestAgentStallAndRestart(t *testing.T) {
	withEngine(t, func(t *testing.T, eng *sim.Engine) {
		rec := &trace.Recorder{}
		eng.SetTracer(rec)
		a := testAgent(eng, "test.proxy", 0)
		a.SetFaultPlane(scriptPlane{agent: map[int64]AgentFate{
			1: {Stall: 100 * sim.Microsecond},
			2: {Stall: 50 * sim.Microsecond, Restart: true},
		}})

		var done []sim.Time
		eng.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				a.Submit(0, holdWork(sim.Microsecond, func(now sim.Time) { done = append(done, now) }))
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if len(done) != 3 {
			t.Fatalf("served %d items, want 3", len(done))
		}
		// Item 1 was stalled 100us; item 2 another 50us on top.
		if d := done[1] - done[0]; d < 100*sim.Microsecond {
			t.Errorf("stall not applied: item gap %v", d)
		}
		if restarts := a.exec.(*testExec).restarts; restarts != 1 || a.Restarts() != 1 {
			t.Errorf("restarts = %d / %d, want 1", restarts, a.Restarts())
		}
		if a.Stalls() != 2 {
			t.Errorf("Stalls() = %d, want 2", a.Stalls())
		}
		stallEvents := 0
		for _, ev := range rec.Events() {
			if ev.Kind == trace.KStall && ev.Comp == "test.proxy" {
				stallEvents++
			}
		}
		if stallEvents != 2 {
			t.Errorf("stall trace events = %d, want 2", stallEvents)
		}
	})
}
