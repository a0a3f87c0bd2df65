package memory

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mproxy/internal/sim"
)

func newReg() *Registry { return NewRegistry(sim.NewEngine()) }

func TestSegmentAllocationAndLookup(t *testing.T) {
	r := newReg()
	s := r.NewSegment(3, 128)
	if s.Owner != 3 || len(s.Data) != 128 {
		t.Fatalf("segment = %+v", s)
	}
	got, ok := r.Segment(s.ID)
	if !ok || got != s {
		t.Fatal("lookup failed")
	}
	if _, ok := r.Segment(999); ok {
		t.Fatal("phantom segment")
	}
}

func TestACLOwnerAlwaysAllowed(t *testing.T) {
	r := newReg()
	s := r.NewSegment(5, 16)
	if !s.Allowed(5) {
		t.Fatal("owner denied")
	}
	if s.Allowed(6) {
		t.Fatal("stranger allowed")
	}
	s.Grant(6)
	if !s.Allowed(6) {
		t.Fatal("grantee denied")
	}
	s.Revoke(6)
	if s.Allowed(6) {
		t.Fatal("revoked rank still allowed")
	}
	// Revoking the owner has no effect.
	s.Revoke(5)
	if !s.Allowed(5) {
		t.Fatal("owner lost access")
	}
}

func TestCheckAccessFaults(t *testing.T) {
	r := newReg()
	s := r.NewSegment(0, 64)
	s.Grant(1)

	if _, err := r.CheckAccess(1, s.Addr(0), 64, "PUT"); err != nil {
		t.Fatalf("legal access faulted: %v", err)
	}
	// Permission fault.
	_, err := r.CheckAccess(2, s.Addr(0), 8, "PUT")
	var f *Fault
	if !errors.As(err, &f) || f.Rank != 2 {
		t.Fatalf("want permission fault, got %v", err)
	}
	// Bounds fault.
	if _, err := r.CheckAccess(0, s.Addr(60), 8, "GET"); err == nil {
		t.Fatal("out-of-bounds access allowed")
	}
	if _, err := r.CheckAccess(0, Addr{Seg: 999}, 1, "GET"); err == nil {
		t.Fatal("access to missing segment allowed")
	}
	if _, err := r.CheckAccess(0, s.Addr(-1), 4, "GET"); err == nil {
		t.Fatal("negative offset allowed")
	}
}

func TestFlagSignal(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry(eng)
	ref := r.NewFlag(0)
	f, ok := r.Flag(ref)
	if !ok {
		t.Fatal("flag not registered")
	}
	r.Signal(ref)
	r.Signal(ref)
	if f.Value() != 2 {
		t.Fatalf("flag = %d", f.Value())
	}
	// Nil reference is a silent no-op.
	r.Signal(FlagRef{})
}

func TestQueueDeliverTake(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry(eng)
	q := r.NewQueue(0)
	var got []byte
	eng.Spawn("owner", func(p *sim.Proc) {
		got = q.Take(p)
	})
	eng.Spawn("sender", func(p *sim.Proc) {
		p.Hold(10)
		q.Deliver([]byte{1, 2, 3})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 {
		t.Fatalf("got %v", got)
	}
	if q.Enqueued() != 1 || q.MaxDepth() != 1 {
		t.Fatalf("stats: %d, %d", q.Enqueued(), q.MaxDepth())
	}
}

func TestQueueACL(t *testing.T) {
	r := newReg()
	q := r.NewQueue(2)
	ref := QueueRef{Owner: 2, ID: q.ID}
	if _, err := r.CheckQueue(2, ref, "ENQ"); err != nil {
		t.Fatalf("owner denied: %v", err)
	}
	if _, err := r.CheckQueue(3, ref, "ENQ"); err == nil {
		t.Fatal("stranger allowed")
	}
	q.Grant(3)
	if _, err := r.CheckQueue(3, ref, "ENQ"); err != nil {
		t.Fatalf("grantee denied: %v", err)
	}
	if _, err := r.CheckQueue(0, QueueRef{Owner: 9, ID: 99}, "DEQ"); err == nil {
		t.Fatal("missing queue allowed")
	}
}

func TestQueueTryTakeFIFO(t *testing.T) {
	r := newReg()
	q := r.NewQueue(0)
	q.Deliver([]byte{1})
	q.Deliver([]byte{2})
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	a, _ := q.TryTake()
	b, _ := q.TryTake()
	if a[0] != 1 || b[0] != 2 {
		t.Fatal("not FIFO")
	}
	if _, ok := q.TryTake(); ok {
		t.Fatal("take from empty")
	}
}

func TestF64ViewRoundTrip(t *testing.T) {
	r := newReg()
	s := r.NewSegment(0, 80)
	v := Float64s(s, 0, 10)
	for i := 0; i < 10; i++ {
		v.Set(i, float64(i)*1.5)
	}
	for i := 0; i < 10; i++ {
		if v.Get(i) != float64(i)*1.5 {
			t.Fatalf("v[%d] = %v", i, v.Get(i))
		}
	}
	if v.Addr(3) != (Addr{s.ID, 24}) {
		t.Fatalf("Addr(3) = %v", v.Addr(3))
	}
}

func TestF64SliceAliasesSegment(t *testing.T) {
	r := newReg()
	s := r.NewSegment(0, 64)
	v := Float64s(s, 0, 8)
	w := v.Slice(2, 5)
	w.Set(0, 42)
	if v.Get(2) != 42 {
		t.Fatal("slice does not alias")
	}
	if w.Len() != 3 {
		t.Fatalf("slice len = %d", w.Len())
	}
}

func TestF64LoadStoreCopy(t *testing.T) {
	r := newReg()
	a := Float64s(r.NewSegment(0, 32), 0, 4)
	b := Float64s(r.NewSegment(1, 32), 0, 4)
	a.Store([]float64{1, 2, 3, 4})
	b.Copy(a)
	got := b.Load()
	for i, want := range []float64{1, 2, 3, 4} {
		if got[i] != want {
			t.Fatalf("got %v", got)
		}
	}
}

func TestF64LoadInto(t *testing.T) {
	r := newReg()
	v := Float64s(r.NewSegment(0, 32), 0, 4)
	v.Store([]float64{1, 2, 3, 4})
	scratch := make([]float64, 1, 8)
	got := v.LoadInto(scratch)
	if &got[0] != &scratch[0] || len(got) != 4 {
		t.Fatalf("LoadInto with room did not fill dst in place: len %d", len(got))
	}
	small := make([]float64, 3)
	grown := v.LoadInto(small)
	if &grown[0] == &small[0] || len(grown) != 4 {
		t.Fatalf("LoadInto into a short dst: len %d, aliases dst %v", len(grown), &grown[0] == &small[0])
	}
	for i, want := range []float64{1, 2, 3, 4} {
		if got[i] != want || grown[i] != want {
			t.Fatalf("got %v and %v", got, grown)
		}
	}
}

func TestI64View(t *testing.T) {
	r := newReg()
	s := r.NewSegment(0, 24)
	v := Int64s(s, 0, 3)
	v.Set(0, -7)
	v.Set(2, 1<<40)
	if v.Get(0) != -7 || v.Get(2) != 1<<40 {
		t.Fatal("int64 round trip failed")
	}
	w := v.Slice(1, 3)
	if w.Get(1) != 1<<40 {
		t.Fatal("slice offset wrong")
	}
}

func TestViewBoundsPanics(t *testing.T) {
	r := newReg()
	s := r.NewSegment(0, 16)
	for name, fn := range map[string]func(){
		"view too large": func() { Float64s(s, 0, 3) },
		"get oob":        func() { Float64s(s, 0, 2).Get(2) },
		"set oob":        func() { Float64s(s, 0, 2).Set(-1, 0) },
		"bad slice":      func() { Float64s(s, 0, 2).Slice(1, 3) },
		"store overflow": func() { Float64s(s, 0, 1).Store([]float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPropertyScalarCodecs(t *testing.T) {
	fOK := func(x float64) bool {
		var b [8]byte
		PutF64(b[:], x)
		y := GetF64(b[:])
		return y == x || (math.IsNaN(x) && math.IsNaN(y))
	}
	iOK := func(x int64) bool {
		var b [8]byte
		PutI64(b[:], x)
		return GetI64(b[:]) == x
	}
	if err := quick.Check(fOK, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(iOK, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyViewMatchesWireFormat(t *testing.T) {
	// Element i of a view must live at base+8i with the PutF64 encoding:
	// the RMA engines rely on this to transfer typed data as raw bytes.
	f := func(vals []float64) bool {
		if len(vals) > 32 {
			vals = vals[:32]
		}
		r := newReg()
		s := r.NewSegment(0, len(vals)*8+8)
		v := Float64s(s, 8, len(vals))
		v.Store(vals)
		for i, x := range vals {
			if GetF64(s.Data[8+8*i:]) != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyACLGrantRevoke(t *testing.T) {
	// Property: after any sequence of grants and revokes, Allowed reflects
	// exactly the surviving grants (plus the owner, always).
	f := func(ops []uint8) bool {
		r := newReg()
		s := r.NewSegment(3, 8)
		want := map[int]bool{}
		for _, op := range ops {
			rank := int(op % 8)
			if op&0x80 != 0 {
				s.Grant(rank)
				want[rank] = true
			} else {
				s.Revoke(rank)
				delete(want, rank)
			}
		}
		for rank := 0; rank < 8; rank++ {
			expected := want[rank] || rank == 3
			if s.Allowed(rank) != expected {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQueueDeliverTakeConservation(t *testing.T) {
	// Property: every delivered record is taken exactly once, in order,
	// regardless of the interleaving of Deliver/TryTake.
	f := func(ops []bool) bool {
		r := newReg()
		q := r.NewQueue(0)
		next, taken := 0, 0
		for _, deliver := range ops {
			if deliver {
				rec := make([]byte, 8)
				PutI64(rec, int64(next))
				q.Deliver(rec)
				next++
			} else if rec, ok := q.TryTake(); ok {
				if GetI64(rec) != int64(taken) {
					return false
				}
				taken++
			}
		}
		for {
			rec, ok := q.TryTake()
			if !ok {
				break
			}
			if GetI64(rec) != int64(taken) {
				return false
			}
			taken++
		}
		return taken == next && q.Enqueued() == int64(next)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
