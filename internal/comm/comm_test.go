package comm

import (
	"strings"
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/fault"
	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
)

// pair builds a 2-node, 1-processor-per-node cluster under a.
func pair(a arch.Params) (*sim.Engine, *Fabric) {
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, a)
	return eng, New(cl)
}

// run2 spawns two bound rank processes and runs the simulation.
func run2(t *testing.T, eng *sim.Engine, f *Fabric, b0, b1 func(ep *Endpoint)) {
	t.Helper()
	for rank, body := range []func(*Endpoint){b0, b1} {
		rank, body := rank, body
		if body == nil {
			continue
		}
		eng.Spawn("rank", func(p *sim.Proc) {
			ep := f.Endpoint(rank)
			ep.Bind(p)
			body(ep)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func archsUnderTest() []arch.Params { return arch.All }

func TestPutDeliversDataAllArchs(t *testing.T) {
	for _, a := range archsUnderTest() {
		t.Run(a.Name, func(t *testing.T) {
			eng, f := pair(a)
			reg := f.Registry()
			src := reg.NewSegment(0, 64)
			dst := reg.NewSegment(1, 64)
			dst.Grant(0)
			rsync := reg.NewFlag(1)
			fsync := reg.NewFlag(0)
			copy(src.Data, "protected communication on SMP clusters")

			var got string
			run2(t, eng, f,
				func(ep *Endpoint) {
					if err := ep.Put(src.Addr(0), dst.Addr(8), 40, fsync, rsync); err != nil {
						t.Error(err)
					}
					ep.WaitFlag(fsync, 1)
				},
				func(ep *Endpoint) {
					ep.WaitFlag(rsync, 1)
					got = string(dst.Data[8:48])
				})
			if !strings.HasPrefix(got, "protected communication") {
				t.Fatalf("data = %q", got)
			}
		})
	}
}

func TestGetFetchesDataAllArchs(t *testing.T) {
	for _, a := range archsUnderTest() {
		t.Run(a.Name, func(t *testing.T) {
			eng, f := pair(a)
			reg := f.Registry()
			local := reg.NewSegment(0, 64)
			remote := reg.NewSegment(1, 64)
			remote.Grant(0)
			fsync := reg.NewFlag(0)
			rsync := reg.NewFlag(1)
			v := memory.Float64s(remote, 0, 4)
			v.Store([]float64{3.14, 2.71, 1.41, 1.73})

			var got []float64
			run2(t, eng, f,
				func(ep *Endpoint) {
					if err := ep.Get(local.Addr(0), remote.Addr(0), 32, fsync, rsync); err != nil {
						t.Error(err)
					}
					ep.WaitFlag(fsync, 1)
					got = memory.Float64s(local, 0, 4).Load()
				}, nil)
			want := []float64{3.14, 2.71, 1.41, 1.73}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("got %v", got)
				}
			}
			if f.Registry() == nil || eng.Now() == 0 {
				t.Fatal("no simulated time elapsed")
			}
			_ = rsync
		})
	}
}

func TestPutFIFOOrderSameSourceDest(t *testing.T) {
	// Two PUTs to the same destination word from the same source must land
	// in issue order (single agent + FIFO link).
	for _, a := range archsUnderTest() {
		t.Run(a.Name, func(t *testing.T) {
			eng, f := pair(a)
			reg := f.Registry()
			src := reg.NewSegment(0, 16)
			dst := reg.NewSegment(1, 16)
			dst.Grant(0)
			rsync := reg.NewFlag(1)
			run2(t, eng, f,
				func(ep *Endpoint) {
					memory.Int64s(src, 0, 2).Set(0, 1)
					memory.Int64s(src, 0, 2).Set(1, 2)
					_ = ep.Put(src.Addr(0), dst.Addr(0), 8, memory.FlagRef{}, memory.FlagRef{})
					_ = ep.Put(src.Addr(8), dst.Addr(0), 8, memory.FlagRef{}, rsync)
				},
				func(ep *Endpoint) {
					ep.WaitFlag(rsync, 1)
					if got := memory.Int64s(dst, 0, 1).Get(0); got != 2 {
						t.Errorf("final value = %d, want 2 (FIFO order)", got)
					}
				})
		})
	}
}

func TestEnqRecvRoundTrip(t *testing.T) {
	for _, a := range archsUnderTest() {
		t.Run(a.Name, func(t *testing.T) {
			eng, f := pair(a)
			reg := f.Registry()
			q := reg.NewQueue(1)
			q.Grant(0)
			ref := memory.QueueRef{Owner: 1, ID: q.ID}
			var got []byte
			run2(t, eng, f,
				func(ep *Endpoint) {
					if err := ep.EnqBytes([]byte{9, 8, 7}, ref, memory.FlagRef{}); err != nil {
						t.Error(err)
					}
				},
				func(ep *Endpoint) {
					got = ep.Recv(q)
				})
			if len(got) != 3 || got[0] != 9 {
				t.Fatalf("got %v", got)
			}
		})
	}
}

func TestEnqFromSegmentWithLsync(t *testing.T) {
	eng, f := pair(arch.MP1)
	reg := f.Registry()
	src := reg.NewSegment(0, 32)
	q := reg.NewQueue(1)
	q.Grant(0)
	ref := memory.QueueRef{Owner: 1, ID: q.ID}
	lsync := reg.NewFlag(0)
	copy(src.Data, "hello-queue")
	var got []byte
	run2(t, eng, f,
		func(ep *Endpoint) {
			if err := ep.Enq(src.Addr(0), ref, 11, lsync); err != nil {
				t.Error(err)
			}
			ep.WaitFlag(lsync, 1)
		},
		func(ep *Endpoint) { got = ep.Recv(q) })
	if string(got) != "hello-queue" {
		t.Fatalf("got %q", got)
	}
}

func TestRemoteDeq(t *testing.T) {
	for _, a := range archsUnderTest() {
		t.Run(a.Name, func(t *testing.T) {
			eng, f := pair(a)
			reg := f.Registry()
			// Rank 1 owns the queue; rank 0 dequeues remotely, before the
			// record is even enqueued (DEQ waits for the matching ENQ).
			q := reg.NewQueue(1)
			q.Grant(0)
			ref := memory.QueueRef{Owner: 1, ID: q.ID}
			dst := reg.NewSegment(0, 16)
			lsync := reg.NewFlag(0)
			run2(t, eng, f,
				func(ep *Endpoint) {
					if err := ep.Deq(dst.Addr(0), ref, 8, lsync); err != nil {
						t.Error(err)
					}
					ep.WaitFlag(lsync, 1)
					if got := memory.Int64s(dst, 0, 1).Get(0); got != 4242 {
						t.Errorf("dequeued %d", got)
					}
				},
				func(ep *Endpoint) {
					ep.Compute(50 * sim.Microsecond)
					var rec [8]byte
					memory.PutI64(rec[:], 4242)
					if err := ep.EnqBytes(rec[:], ref, memory.FlagRef{}); err != nil {
						t.Error(err)
					}
				})
		})
	}
}

func TestProtectionPutWithoutGrant(t *testing.T) {
	eng, f := pair(arch.MP1)
	reg := f.Registry()
	src := reg.NewSegment(0, 16)
	dst := reg.NewSegment(1, 16) // no grant to rank 0
	var err error
	run2(t, eng, f,
		func(ep *Endpoint) {
			err = ep.Put(src.Addr(0), dst.Addr(0), 8, memory.FlagRef{}, memory.FlagRef{})
		}, nil)
	var fault *memory.Fault
	if err == nil {
		t.Fatal("unauthorized PUT succeeded")
	}
	if !strings.Contains(err.Error(), "permission denied") {
		t.Fatalf("err = %v", err)
	}
	_ = fault
}

func TestProtectionQueueWithoutGrant(t *testing.T) {
	eng, f := pair(arch.HW1)
	reg := f.Registry()
	q := reg.NewQueue(1)
	ref := memory.QueueRef{Owner: 1, ID: q.ID}
	var err error
	run2(t, eng, f,
		func(ep *Endpoint) { err = ep.EnqBytes([]byte{1}, ref, memory.FlagRef{}) }, nil)
	if err == nil {
		t.Fatal("unauthorized ENQ succeeded")
	}
}

func TestProtectionOutOfBounds(t *testing.T) {
	eng, f := pair(arch.SW1)
	reg := f.Registry()
	src := reg.NewSegment(0, 16)
	dst := reg.NewSegment(1, 16)
	dst.Grant(0)
	var err error
	run2(t, eng, f,
		func(ep *Endpoint) {
			err = ep.Put(src.Addr(0), dst.Addr(12), 8, memory.FlagRef{}, memory.FlagRef{})
		}, nil)
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("err = %v", err)
	}
}

func TestIntraNodeBypassesAgent(t *testing.T) {
	// Two ranks on one node: a PUT between them must not generate agent
	// work or network packets.
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: 1, ProcsPerNode: 2}, arch.MP1)
	f := New(cl)
	reg := f.Registry()
	src := reg.NewSegment(0, 16)
	dst := reg.NewSegment(1, 16)
	dst.Grant(0)
	rsync := reg.NewFlag(1)
	run2(t, eng, f,
		func(ep *Endpoint) {
			memory.Int64s(src, 0, 1).Set(0, 77)
			_ = ep.Put(src.Addr(0), dst.Addr(0), 8, memory.FlagRef{}, rsync)
		},
		func(ep *Endpoint) {
			ep.WaitFlag(rsync, 1)
			if got := memory.Int64s(dst, 0, 1).Get(0); got != 77 {
				t.Errorf("got %d", got)
			}
		})
	if cl.Nodes[0].Agent.Served() != 0 {
		t.Fatalf("agent served %d items for intra-node PUT", cl.Nodes[0].Agent.Served())
	}
	if cl.Nodes[0].OutLink.Packets() != 0 {
		t.Fatal("intra-node PUT hit the network")
	}
	if f.Stats().Intra != 1 {
		t.Fatalf("intra count = %d", f.Stats().Intra)
	}
}

func TestLargePutUsesDMAPages(t *testing.T) {
	for _, a := range []arch.Params{arch.HW1, arch.MP1, arch.SW1} {
		t.Run(a.Name, func(t *testing.T) {
			eng, f := pair(a)
			reg := f.Registry()
			const n = 3*4096 + 100 // 4 pages
			src := reg.NewSegment(0, n)
			dst := reg.NewSegment(1, n)
			dst.Grant(0)
			for i := range src.Data {
				src.Data[i] = byte(i * 7)
			}
			fsync := reg.NewFlag(0)
			run2(t, eng, f,
				func(ep *Endpoint) {
					if err := ep.Put(src.Addr(0), dst.Addr(0), n, fsync, memory.FlagRef{}); err != nil {
						t.Error(err)
					}
					ep.WaitFlag(fsync, 1)
				}, nil)
			for i := range dst.Data {
				if dst.Data[i] != byte(i*7) {
					t.Fatalf("byte %d corrupt", i)
				}
			}
			if got := f.Cl.Nodes[0].DMA.Packets(); got != 4 {
				t.Fatalf("DMA transfers = %d, want 4 pages", got)
			}
		})
	}
}

func TestLargeGet(t *testing.T) {
	eng, f := pair(arch.MP1)
	reg := f.Registry()
	const n = 2 * 4096
	local := reg.NewSegment(0, n)
	remote := reg.NewSegment(1, n)
	remote.Grant(0)
	for i := range remote.Data {
		remote.Data[i] = byte(255 - i%251)
	}
	fsync := reg.NewFlag(0)
	run2(t, eng, f,
		func(ep *Endpoint) {
			if err := ep.Get(local.Addr(0), remote.Addr(0), n, fsync, memory.FlagRef{}); err != nil {
				t.Error(err)
			}
			ep.WaitFlag(fsync, 1)
		}, nil)
	for i := range local.Data {
		if local.Data[i] != byte(255-i%251) {
			t.Fatalf("byte %d corrupt", i)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, f := pair(arch.MP1)
	reg := f.Registry()
	src := reg.NewSegment(0, 64)
	dst := reg.NewSegment(1, 64)
	dst.Grant(0)
	rsync := reg.NewFlag(1)
	run2(t, eng, f,
		func(ep *Endpoint) {
			_ = ep.Put(src.Addr(0), dst.Addr(0), 24, memory.FlagRef{}, memory.FlagRef{})
			_ = ep.Put(src.Addr(0), dst.Addr(0), 24, memory.FlagRef{}, rsync)
			_ = ep.Get(src.Addr(0), dst.Addr(0), 16, memory.FlagRef{}, memory.FlagRef{})
		},
		func(ep *Endpoint) { ep.WaitFlag(rsync, 1) })
	s := f.Stats()
	if s.Ops[OpPut] != 2 || s.Ops[OpGet] != 1 {
		t.Fatalf("ops = %+v", s.Ops)
	}
	if s.Bytes[OpPut] != 48 || s.Bytes[OpGet] != 16 {
		t.Fatalf("bytes = %+v", s.Bytes)
	}
	if got := s.AvgMsgSize(); got < 21 || got > 22 {
		t.Fatalf("avg msg size = %v, want 64/3", got)
	}
	if f.Endpoint(0).Ops() != 3 {
		t.Fatalf("endpoint ops = %d", f.Endpoint(0).Ops())
	}
}

func TestDeterministicLatency(t *testing.T) {
	// The same communication sequence must take the identical number of
	// simulated nanoseconds on every run.
	measure := func() sim.Time {
		eng, f := pair(arch.MP0)
		reg := f.Registry()
		src := reg.NewSegment(0, 64)
		dst := reg.NewSegment(1, 64)
		dst.Grant(0)
		fsync := reg.NewFlag(0)
		var took sim.Time
		run2(t, eng, f,
			func(ep *Endpoint) {
				start := ep.Proc().Now()
				for i := 0; i < 10; i++ {
					_ = ep.Put(src.Addr(0), dst.Addr(0), 8, fsync, memory.FlagRef{})
					ep.WaitFlag(fsync, int64(i+1))
				}
				took = ep.Proc().Now() - start
			}, nil)
		return took
	}
	a, b := measure(), measure()
	if a != b || a == 0 {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestProxyUtilizationTracked(t *testing.T) {
	eng, f := pair(arch.MP1)
	reg := f.Registry()
	src := reg.NewSegment(0, 64)
	dst := reg.NewSegment(1, 64)
	dst.Grant(0)
	fsync := reg.NewFlag(0)
	run2(t, eng, f,
		func(ep *Endpoint) {
			for i := 0; i < 5; i++ {
				_ = ep.Put(src.Addr(0), dst.Addr(0), 8, fsync, memory.FlagRef{})
				ep.WaitFlag(fsync, int64(i+1))
			}
		}, nil)
	ag := f.Cl.Nodes[0].Agent
	if ag.Served() < 10 { // 5 sends + 5 acks
		t.Fatalf("agent served %d", ag.Served())
	}
	if ag.BusyTime() <= 0 {
		t.Fatal("no busy time recorded")
	}
	if u := ag.Utilization(eng.Now()); u <= 0 || u >= 1 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestCommandQueueBackpressure(t *testing.T) {
	// Shrink the command ring so a burst of PUTs overflows it: the
	// endpoint must spin (charging polling periods) and still deliver
	// every operation exactly once.
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, arch.MP1)
	f := NewWith(cl, Options{CommandQueueCap: 2})
	reg := f.Registry()
	src := reg.NewSegment(0, 8)
	dst := reg.NewSegment(1, 8*64)
	dst.Grant(0)
	rsync := reg.NewFlag(1)
	const burst = 32
	run2(t, eng, f,
		func(ep *Endpoint) {
			for i := 0; i < burst; i++ {
				memory.Int64s(src, 0, 1).Set(0, int64(i))
				if err := ep.Put(src.Addr(0), dst.Addr(8*i), 8, memory.FlagRef{}, rsync); err != nil {
					t.Error(err)
				}
				// Wait for this PUT to land before reusing the source
				// buffer (zero-copy semantics: the proxy reads it at
				// service time).
				ep.WaitFlag(rsync, int64(i+1))
			}
		},
		func(ep *Endpoint) {
			ep.WaitFlag(rsync, burst)
			for i := 0; i < burst; i++ {
				if got := memory.Int64s(dst, 8*i, 1).Get(0); got != int64(i) {
					t.Errorf("slot %d = %d", i, got)
				}
			}
		})
	if hits := f.Endpoint(0).cmdq.FullHits(); hits != 0 {
		// With per-op waits the ring never actually fills here; issue a
		// genuinely bursty pattern to hit backpressure below.
		t.Logf("full hits on paced run: %d", hits)
	}

	// Now a true burst without intermediate waits (distinct source
	// segments so zero-copy reads stay valid).
	eng2 := sim.NewEngine()
	cl2 := machine.New(eng2, machine.Config{Nodes: 2, ProcsPerNode: 1}, arch.MP1)
	f2 := NewWith(cl2, Options{CommandQueueCap: 2})
	reg2 := f2.Registry()
	srcs := reg2.NewSegment(0, 8*burst)
	dst2 := reg2.NewSegment(1, 8*burst)
	dst2.Grant(0)
	done := reg2.NewFlag(1)
	run2(t, eng2, f2,
		func(ep *Endpoint) {
			for i := 0; i < burst; i++ {
				memory.Int64s(srcs, 8*i, 1).Set(0, int64(100+i))
				if err := ep.Put(srcs.Addr(8*i), dst2.Addr(8*i), 8, memory.FlagRef{}, done); err != nil {
					t.Error(err)
				}
			}
		},
		func(ep *Endpoint) {
			ep.WaitFlag(done, burst)
			for i := 0; i < burst; i++ {
				if got := memory.Int64s(dst2, 8*i, 1).Get(0); got != int64(100+i) {
					t.Errorf("slot %d = %d", i, got)
				}
			}
		})
	if hits := f2.Endpoint(0).cmdq.FullHits(); hits == 0 {
		t.Error("burst of 32 PUTs through a 2-entry ring hit no backpressure")
	}
}

func TestConcurrentFabricsDistinctQueueCaps(t *testing.T) {
	// Two engines running concurrently with different command-queue
	// capacities: the capacity is per-fabric state, so neither run can
	// observe the other's setting (the old package global raced here
	// under workload.RunJobs -j). Run under -race in CI.
	run := func(cap int) (fullHits int64) {
		const burst = 32
		eng := sim.NewEngine()
		cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, arch.MP1)
		f := NewWith(cl, Options{CommandQueueCap: cap})
		reg := f.Registry()
		src := reg.NewSegment(0, 8*burst)
		dst := reg.NewSegment(1, 8*burst)
		dst.Grant(0)
		done := reg.NewFlag(1)
		eng.Spawn("sender", func(p *sim.Proc) {
			ep := f.Endpoint(0)
			ep.Bind(p)
			for i := 0; i < burst; i++ {
				if err := ep.Put(src.Addr(8*i), dst.Addr(8*i), 8, memory.FlagRef{}, done); err != nil {
					t.Error(err)
				}
			}
		})
		eng.Spawn("receiver", func(p *sim.Proc) {
			ep := f.Endpoint(1)
			ep.Bind(p)
			ep.WaitFlag(done, burst)
		})
		if err := eng.Run(); err != nil {
			t.Error(err)
		}
		return f.Endpoint(0).cmdq.FullHits()
	}
	type res struct{ tiny, big int64 }
	results := make(chan res, 4)
	for i := 0; i < 4; i++ {
		go func() {
			var r res
			r.tiny = run(2)
			r.big = run(DefaultCommandQueueCap)
			results <- r
		}()
	}
	for i := 0; i < 4; i++ {
		r := <-results
		if r.tiny == 0 {
			t.Error("2-entry ring saw no backpressure")
		}
		if r.big != 0 {
			t.Errorf("default ring hit backpressure %d times", r.big)
		}
	}
}

func TestPutBytesBackToBack(t *testing.T) {
	// Immediate-payload PUTs capture their data at submission: issuing
	// many without waiting must not corrupt earlier payloads.
	eng, f := pair(arch.MP1)
	reg := f.Registry()
	dst := reg.NewSegment(1, 8*16)
	dst.Grant(0)
	done := reg.NewFlag(1)
	run2(t, eng, f,
		func(ep *Endpoint) {
			for i := 0; i < 16; i++ {
				var b [8]byte
				memory.PutI64(b[:], int64(1000+i))
				if err := ep.PutBytes(b[:], dst.Addr(8*i), memory.FlagRef{}, done); err != nil {
					t.Error(err)
				}
			}
		},
		func(ep *Endpoint) {
			ep.WaitFlag(done, 16)
			for i := 0; i < 16; i++ {
				if got := memory.Int64s(dst, 8*i, 1).Get(0); got != int64(1000+i) {
					t.Errorf("slot %d = %d", i, got)
				}
			}
		})
}

func TestLatencyStatsAccounting(t *testing.T) {
	// Every issued operation must show up exactly once in the latency
	// statistics, with one-way latencies in the plausible band for its
	// design point.
	for _, a := range archsUnderTest() {
		t.Run(a.Name, func(t *testing.T) {
			eng, f := pair(a)
			reg := f.Registry()
			src := reg.NewSegment(0, 4096*3)
			dst := reg.NewSegment(1, 4096*3)
			dst.Grant(0)
			q := reg.NewQueue(1)
			q.Grant(0)
			qref := memory.QueueRef{Owner: 1, ID: q.ID}
			fsync := reg.NewFlag(0)
			run2(t, eng, f,
				func(ep *Endpoint) {
					for i := 0; i < 5; i++ {
						_ = ep.Put(src.Addr(0), dst.Addr(0), 8, memory.FlagRef{}, memory.FlagRef{})
					}
					_ = ep.Put(src.Addr(0), dst.Addr(0), 3*4096, memory.FlagRef{}, memory.FlagRef{})
					_ = ep.Get(src.Addr(0), dst.Addr(0), 8, fsync, memory.FlagRef{})
					ep.WaitFlag(fsync, 1)
					_ = ep.EnqBytes([]byte{1, 2}, qref, memory.FlagRef{})
				},
				func(ep *Endpoint) {
					_ = ep.Recv(q)
				})
			ls := f.LatencyStats()
			if ls[OpPut].Count != 6 {
				t.Fatalf("PUT count = %d, want 6", ls[OpPut].Count)
			}
			if ls[OpGet].Count != 1 || ls[OpEnq].Count != 1 {
				t.Fatalf("GET/ENQ counts = %d/%d", ls[OpGet].Count, ls[OpEnq].Count)
			}
			// One-way small-PUT latency sits below the Table 4 round trip.
			if ls[OpPut].MeanUs <= 0 || ls[OpPut].MeanUs > 300 {
				t.Fatalf("PUT mean latency = %v us", ls[OpPut].MeanUs)
			}
			// GET is inherently a round trip: at least as long as a PUT's
			// one-way delivery.
			if ls[OpGet].MeanUs <= 0 {
				t.Fatalf("GET mean latency = %v us", ls[OpGet].MeanUs)
			}
			if ls[OpPut].MaxUs < ls[OpPut].MeanUs {
				t.Fatal("max below mean")
			}
		})
	}
}

func TestLatencyStatsIntra(t *testing.T) {
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: 1, ProcsPerNode: 2}, arch.MP1)
	f := New(cl)
	reg := f.Registry()
	src := reg.NewSegment(0, 16)
	dst := reg.NewSegment(1, 16)
	dst.Grant(0)
	run2(t, eng, f,
		func(ep *Endpoint) {
			_ = ep.Put(src.Addr(0), dst.Addr(0), 8, memory.FlagRef{}, memory.FlagRef{})
		}, nil)
	ls := f.LatencyStats()
	if ls[OpPut].Count != 1 {
		t.Fatalf("PUT count = %d", ls[OpPut].Count)
	}
	// Intra-node: a couple of cache misses, far below any network path.
	if ls[OpPut].MeanUs > 5 {
		t.Fatalf("intra PUT latency = %v us", ls[OpPut].MeanUs)
	}
}

// TestDupWithoutRelCompletesOnce: over a wire that duplicates every
// packet, with no reliable transport to filter the copies, each PUT and
// GET still completes once: one latency sample, and one signal on each
// of its flags.
func TestDupWithoutRelCompletesOnce(t *testing.T) {
	const ops = 10
	for _, a := range archsUnderTest() {
		t.Run(a.Name, func(t *testing.T) {
			eng := sim.NewEngine()
			cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, a)
			cl.SetFaultPlane(fault.NewPlane(fault.Config{Seed: 1, Dup: 1}))
			f := New(cl)
			reg := f.Registry()
			local := reg.NewSegment(0, 64)
			remote := reg.NewSegment(1, 64)
			remote.Grant(0)
			putF, putR := reg.NewFlag(0), reg.NewFlag(1)
			getF, getR := reg.NewFlag(0), reg.NewFlag(1)
			run2(t, eng, f, func(ep *Endpoint) {
				for i := int64(1); i <= ops; i++ {
					if err := ep.Put(local.Addr(0), remote.Addr(0), 64, putF, putR); err != nil {
						t.Error(err)
					}
					ep.WaitFlag(putF, i)
					if err := ep.Get(local.Addr(0), remote.Addr(0), 64, getF, getR); err != nil {
						t.Error(err)
					}
					ep.WaitFlag(getF, i)
				}
			}, nil)
			for name, ref := range map[string]memory.FlagRef{"PUT fsync": putF, "PUT rsync": putR, "GET fsync": getF, "GET rsync": getR} {
				if fl, _ := reg.Flag(ref); fl.Value() != ops {
					t.Errorf("%s signaled %d times for %d operations", name, fl.Value(), ops)
				}
			}
			lat := f.LatencyStats()
			if lat[OpPut].Count != ops || lat[OpGet].Count != ops {
				t.Errorf("latency samples: %d PUT, %d GET for %d of each", lat[OpPut].Count, lat[OpGet].Count, ops)
			}
		})
	}
}
