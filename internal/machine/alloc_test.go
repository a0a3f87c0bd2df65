package machine

import (
	"testing"

	"mproxy/internal/sim"
)

// Steady-state allocation pins for the converted run-to-completion paths.
// The engine core is already pinned at zero in internal/sim; these guard
// the next layer up — the agent service loop and the link sink path —
// which the proxy hot paths are built from.

func pinAllocs(t *testing.T, what string, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, fn); got != 0 {
		t.Errorf("%s: %v allocs/op, want 0", what, got)
	}
}

// TestAllocPinTaskAgentServe: submit → dequeue → notice → serve → done on
// an agent must not allocate once the work FIFO has grown.
func TestAllocPinTaskAgentServe(t *testing.T) {
	eng := sim.NewEngine()
	a := NewAgent(eng, "ag", 0)
	served := 0
	w := Work{TFn: func(a *Agent, _ any) {
		served++
		a.WorkDone()
	}}
	for i := 0; i < 8; i++ { // warm FIFO and event queues
		a.Submit(w)
	}
	if err := eng.RunUntil(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if served != 8 {
		t.Fatalf("warmup served %d of 8", served)
	}
	pinAllocs(t, "task agent submit+serve", func() {
		a.Submit(w)
		if err := eng.RunUntil(eng.Now() + sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	eng.Shutdown()
}

// TestAllocPinLinkSink: the link's packet delivery path
// (SendToSink through the recycled delivery node) must not allocate in
// steady state.
func TestAllocPinLinkSink(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, "nic", 100, sim.Microsecond)
	sink := &countSink{}
	for i := 0; i < 8; i++ { // warm the delivery freelist
		l.SendToSink(64, sink, nil)
	}
	if err := eng.RunUntil(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sink.n != 8 {
		t.Fatalf("warmup delivered %d of 8", sink.n)
	}
	pinAllocs(t, "SendToSink+deliver", func() {
		l.SendToSink(64, sink, nil)
		if err := eng.RunUntil(eng.Now() + sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	eng.Shutdown()
}

type countSink struct{ n int }

func (s *countSink) DeliverPacket(arg any, fate PacketFate) { s.n++ }
