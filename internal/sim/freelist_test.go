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
