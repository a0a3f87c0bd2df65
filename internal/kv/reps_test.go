package kv

import "testing"

// TestRepRingAcksOutOfOrder: replicated PUTs complete in any order; the
// ring finds each in-flight record by its id, refuses ids that are not in
// flight, keeps records across its growth, and stays as small as the
// span of ids in flight.
func TestRepRingAcksOutOfOrder(t *testing.T) {
	var r repRing
	ids := make([]uint64, 5)
	for i := range ids {
		ids[i] = r.add(repWait{need: 1, client: int32(i)})
	}
	for _, i := range []int{3, 1, 4, 0, 2} {
		w := r.get(ids[i])
		if w == nil || w.client != int32(i) {
			t.Fatalf("id %d: got %+v, want client %d", ids[i], w, i)
		}
		w.need--
		r.retire()
		if r.get(ids[i]) != nil {
			t.Fatalf("id %d still in flight after its last ack", ids[i])
		}
	}
	if r.head != r.next || r.get(r.next) != nil {
		t.Fatalf("drained ring: head %d, next %d", r.head, r.next)
	}
	// A steady flow that keeps the ids in flight within a span of three,
	// acknowledged out of order, keeps a fresh ring at four slots.
	r = repRing{}
	var inflight []uint64
	for i := 0; i < 1000; i++ {
		if len(inflight) == 3 {
			for _, j := range []int{1, 0} {
				r.get(inflight[j]).need--
				r.retire()
			}
			inflight = inflight[2:]
		}
		inflight = append(inflight, r.add(repWait{need: 1}))
	}
	if n := len(r.waits); n > 4 {
		t.Errorf("ring grew to %d slots with ids in flight spanning at most 3", n)
	}
}
