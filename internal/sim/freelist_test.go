package sim

import "testing"

func TestFreelistLIFO(t *testing.T) {
	var l Freelist[int]
	if l.Get() != nil {
		t.Fatal("Get on an empty list returned an object")
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	if l.Get() != b || l.Get() != a || l.Get() != nil {
		t.Fatal("Get does not return objects last in, first out")
	}
	// A popped slot must not keep its object reachable.
	if cap(l.free) == 0 || l.free[:cap(l.free)][0] != nil {
		t.Fatal("Get left a popped object in the backing array")
	}
}

// TestPoolPerEngine: Pool hands each engine its own instance of a pool
// type, the same one on every lookup, and distinct pool types never
// alias.
func TestPoolPerEngine(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	pa := Pool[Freelist[int]](a)
	if pa == nil || Pool[Freelist[int]](a) != pa {
		t.Fatal("Pool does not return one stable pool per engine")
	}
	if Pool[Freelist[int]](b) == pa {
		t.Fatal("two engines share one pool")
	}
	x := new(int)
	pa.Put(x)
	if Pool[Freelist[int]](b).Get() != nil {
		t.Fatal("an object returned on one engine is visible on another")
	}
	if Pool[Freelist[int]](a).Get() != x {
		t.Fatal("the engine's pool lost the returned object")
	}
	pa.Put(x)
	if Pool[Freelist[int64]](a).Len() != 0 || pa.Len() != 1 {
		t.Fatal("distinct pool types alias")
	}
}
