package sortapp

import (
	"math"
	"testing"

	"mproxy/internal/apps"
	"mproxy/internal/apps/apptest"
)

// TestSharedReference checks, at test scale and every Figure 8 processor
// count and for both variants, that the shared input summary a run
// verified against equals a fresh one, and that Verify still rejects an
// output whose key sum is perturbed beyond its tolerance.
func TestSharedReference(t *testing.T) {
	for _, v := range []struct {
		keys int
		bulk bool
	}{{600, false}, {2000, true}} {
		apptest.EachProcs(t, func() apps.App { return New(v.keys, v.bulk) }, func(t *testing.T, a apps.App, p int) {
			s := a.(*Sort)
			if fresh := inputSummary(v.keys); s.input != fresh {
				t.Fatalf("%s %d procs: shared summary %+v, fresh %+v", s.Name(), p, s.input, fresh)
			}
			// Raise the largest key: the output stays sorted, but its sum
			// (and maximum) no longer match the input's.
			last := s.buckets[len(s.buckets)-1]
			last[len(last)-1] += 1e-3 * math.Max(1, math.Abs(s.input.sum))
			if s.Verify() == nil {
				t.Fatalf("%s %d procs: Verify accepted a perturbed output", s.Name(), p)
			}
		})
	}
}
