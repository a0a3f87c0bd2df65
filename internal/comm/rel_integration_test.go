package comm

import (
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/fault"
	"mproxy/internal/machine"
	"mproxy/internal/machine/topo"
	"mproxy/internal/memory"
	"mproxy/internal/rel"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// faultyPair builds a 2-node cluster under a with a seeded fault plane
// and reliable transport enabled.
func faultyPair(a arch.Params, fc fault.Config) (*sim.Engine, *Fabric) {
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, a)
	cl.SetFaultPlane(fault.NewPlane(fc))
	f := New(cl)
	f.EnableRel(rel.Config{})
	return eng, f
}

// TestRelRecoversLossAllArchs runs a PUT+fsync / GET / ENQ+DEQ workload
// over a heavily lossy wire on each architecture and checks that every
// operation still completes with the right data — the transport hides
// drops, corruption, duplication and reordering from the fabric.
func TestRelRecoversLossAllArchs(t *testing.T) {
	for _, a := range []arch.Params{arch.HW1, arch.MP1, arch.SW1} {
		t.Run(a.Name, func(t *testing.T) {
			eng, f := faultyPair(a, fault.Config{
				Seed: 7, Drop: 0.05, Corrupt: 0.02, Dup: 0.02, Reorder: 0.1,
			})
			reg := f.Registry()
			src := reg.NewSegment(0, 256)
			dst := reg.NewSegment(1, 256)
			dst.Grant(0)
			back := reg.NewSegment(0, 64)
			remote := reg.NewSegment(1, 64)
			remote.Grant(0)
			rq := reg.NewQueue(1)
			rq.Grant(0)
			rqRef := memory.QueueRef{Owner: 1, ID: rq.ID}
			fsync := reg.NewFlag(0)
			gsync := reg.NewFlag(0)
			rsync := reg.NewFlag(1)
			for i := range src.Data {
				src.Data[i] = byte(i * 7)
			}
			copy(remote.Data, "remote source buffer for get")

			const rounds = 12
			var got [][]byte
			run2(t, eng, f,
				func(ep *Endpoint) {
					for i := 0; i < rounds; i++ {
						if err := ep.Put(src.Addr(0), dst.Addr(0), 128, fsync, rsync); err != nil {
							t.Error(err)
						}
						ep.WaitFlag(fsync, int64(i+1))
						if err := ep.EnqBytes([]byte{byte(i), 0xab}, rqRef, memory.FlagRef{}); err != nil {
							t.Error(err)
						}
					}
					if err := ep.Get(back.Addr(0), remote.Addr(0), 28, gsync, memory.FlagRef{}); err != nil {
						t.Error(err)
					}
					ep.WaitFlag(gsync, 1)
				},
				func(ep *Endpoint) {
					ep.WaitFlag(rsync, rounds)
					for i := 0; i < rounds; i++ {
						got = append(got, ep.Recv(rq))
					}
				})

			if err := f.RelErr(); err != nil {
				t.Fatalf("transport failed under recoverable loss: %v", err)
			}
			for i := 0; i < 128; i++ {
				if dst.Data[i] != byte(i*7) {
					t.Fatalf("PUT data corrupted at %d: %d", i, dst.Data[i])
				}
			}
			if string(back.Data[:28]) != "remote source buffer for get" {
				t.Fatalf("GET data = %q", back.Data[:28])
			}
			if len(got) != rounds {
				t.Fatalf("dequeued %d records, want %d", len(got), rounds)
			}
			for i, rec := range got {
				if len(rec) != 2 || rec[0] != byte(i) || rec[1] != 0xab {
					t.Fatalf("record %d = %v (queue order broken)", i, rec)
				}
			}
			st := f.Rel().Stats()
			if st.Retransmits == 0 {
				t.Error("lossy run had no retransmits; fault plane not wired?")
			}
			if st.FlowsFailed != 0 {
				t.Errorf("flows failed: %+v", st)
			}
		})
	}
}

// TestRelCleanWireMatchesDataNoRetransmits checks that with faults absent
// the transport is invisible to correctness: all data flows, nothing
// retransmits, and no flow fails.
func TestRelCleanWireMatchesDataNoRetransmits(t *testing.T) {
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, arch.MP1)
	f := New(cl)
	f.EnableRel(rel.Config{})
	reg := f.Registry()
	src := reg.NewSegment(0, 64)
	dst := reg.NewSegment(1, 64)
	dst.Grant(0)
	fsync := reg.NewFlag(0)
	copy(src.Data, "clean wire, reliable transport")
	run2(t, eng, f,
		func(ep *Endpoint) {
			if err := ep.Put(src.Addr(0), dst.Addr(0), 30, fsync, memory.FlagRef{}); err != nil {
				t.Error(err)
			}
			ep.WaitFlag(fsync, 1)
		}, nil)
	if string(dst.Data[:30]) != "clean wire, reliable transport" {
		t.Fatalf("data = %q", dst.Data[:30])
	}
	st := f.Rel().Stats()
	if st.Retransmits != 0 || st.Duplicates != 0 || st.FlowsFailed != 0 {
		t.Errorf("clean wire transport stats: %+v", st)
	}
	if f.Rel().Outstanding() != 0 {
		t.Errorf("outstanding frames after quiesce: %d", f.Rel().Outstanding())
	}
}

// TestPermanentLinkDownFailsGracefully holds node 0's output link down
// past the retry budget: the transport declares the flow dead, stops the
// simulation, and surfaces the error through RelErr instead of hanging.
func TestPermanentLinkDownFailsGracefully(t *testing.T) {
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, arch.MP1)
	cl.SetFaultPlane(fault.NewPlane(fault.Config{
		Seed: 1,
		Down: []fault.Window{{Node: 0, From: 0, To: 1 << 62}},
	}))
	f := New(cl)
	f.EnableRel(rel.Config{RTO: 20 * sim.Microsecond, MaxRetries: 4})
	reg := f.Registry()
	src := reg.NewSegment(0, 64)
	dst := reg.NewSegment(1, 64)
	dst.Grant(0)
	fsync := reg.NewFlag(0)

	eng.Spawn("rank0", func(p *sim.Proc) {
		ep := f.Endpoint(0)
		ep.Bind(p)
		if err := ep.Put(src.Addr(0), dst.Addr(0), 16, fsync, memory.FlagRef{}); err != nil {
			t.Error(err)
		}
		ep.WaitFlag(fsync, 1) // never satisfied; Stop unblocks the run
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("engine error (deadlock instead of graceful stop?): %v", err)
	}
	err := f.RelErr()
	if err == nil {
		t.Fatal("permanent link-down produced no transport error")
	}
	if st := f.Rel().Stats(); st.FlowsFailed != 1 {
		t.Errorf("stats = %+v, want one failed flow", st)
	}
}

// TestProxyCrashRestartRecovers injects a scripted proxy crash between
// two operations and checks the restart rebuilds the scanner state: the
// command enqueued while the proxy was down is still discovered and
// served (no hang), with the stall and restart visible in the trace.
func TestProxyCrashRestartRecovers(t *testing.T) {
	eng := sim.NewEngine()
	rec := &trace.Recorder{}
	eng.SetTracer(rec)
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, arch.MP1)
	// Work item 1 of node 0's proxy crashes (agent names are
	// "node<i>.proxy<k>"); everything else is clean.
	cl.SetFaultPlane(crashPlane{agent: "node0.proxy0", item: 1})
	f := New(cl)
	reg := f.Registry()
	src := reg.NewSegment(0, 64)
	dst := reg.NewSegment(1, 64)
	dst.Grant(0)
	fsync := reg.NewFlag(0)

	run2(t, eng, f,
		func(ep *Endpoint) {
			for i := 0; i < 3; i++ {
				if err := ep.Put(src.Addr(0), dst.Addr(0), 8, fsync, memory.FlagRef{}); err != nil {
					t.Error(err)
				}
				ep.WaitFlag(fsync, int64(i+1))
			}
		}, nil)

	if n := cl.Nodes[0].Agents[0].Restarts(); n != 1 {
		t.Errorf("proxy restarts = %d, want 1", n)
	}
	var stalls int
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KStall && ev.Comp == "node0.proxy0" {
			stalls++
		}
	}
	if stalls != 1 {
		t.Errorf("stall events = %d, want 1", stalls)
	}
}

// crashPlane crashes one specific work item of one named agent.
type crashPlane struct {
	agent string
	item  int64
}

func (c crashPlane) PacketFate(link string, node int, seq uint64, now sim.Time) machine.PacketFate {
	return machine.PacketFate{}
}

func (c crashPlane) AgentFault(agent string, item int64, now sim.Time) machine.AgentFate {
	if agent == c.agent && item == c.item {
		return machine.AgentFate{Stall: 200 * sim.Microsecond, Restart: true}
	}
	return machine.AgentFate{}
}

// relFatTreePut times one PUT (with local completion) from rank 0 to
// rank 15 of a 16-node MP1 fat-tree on a clean wire, with or without the
// reliable transport, and returns the completion instant and the
// interconnect that carried it.
func relFatTreePut(t *testing.T, relOn bool) (sim.Time, *topo.Net) {
	t.Helper()
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: 16, ProcsPerNode: 1}, arch.MP1)
	net := topo.NewNet(cl, topo.FatTree(16))
	cl.SetInterconnect(net)
	var opt Options
	if relOn {
		cfg := rel.DefaultConfig()
		opt.Rel = &cfg
	}
	f := NewWith(cl, opt)
	reg := f.Registry()
	src := reg.NewSegment(0, 64)
	dst := reg.NewSegment(15, 64)
	dst.Grant(0)
	fsync := reg.NewFlag(0)
	copy(src.Data, "over the switches")
	var done sim.Time
	eng.Spawn("rank0", func(p *sim.Proc) {
		ep := f.Endpoint(0)
		ep.Bind(p)
		if err := ep.Put(src.Addr(0), dst.Addr(0), 17, fsync, memory.FlagRef{}); err != nil {
			t.Error(err)
		}
		ep.WaitFlag(fsync, 1)
		done = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := string(dst.Data[:17]); got != "over the switches" {
		t.Fatalf("rel=%v: destination holds %q", relOn, got)
	}
	return done, net
}

// TestRelCrossesSwitchFabric checks that reliable-transport frames take
// the multi-switch route like every other packet: the interconnect
// delivers them, and the rel header bytes make the PUT slower than the
// same PUT without the transport, never faster.
func TestRelCrossesSwitchFabric(t *testing.T) {
	plain, plainNet := relFatTreePut(t, false)
	if hops := plainNet.Hops(0, 15); hops != 4 {
		t.Fatalf("rank 0 -> rank 15 crosses %d hops, want 4", hops)
	}
	relDone, relNet := relFatTreePut(t, true)
	if relNet.Delivered() == 0 {
		t.Fatal("rel frames bypassed the switch fabric: the interconnect delivered nothing")
	}
	if relDone < plain {
		t.Fatalf("PUT with rel completes at %v, before the same PUT without it at %v", relDone, plain)
	}
}
