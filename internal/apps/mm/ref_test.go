package mm

import (
	"math"
	"slices"
	"testing"

	"mproxy/internal/apps"
	"mproxy/internal/apps/apptest"
)

// TestSharedReference checks, at test scale and every Figure 8 processor
// count, that the shared reference a run verified against equals a fresh
// serial computation, and that Verify still rejects a product perturbed
// beyond its tolerance.
func TestSharedReference(t *testing.T) {
	apptest.EachProcs(t, func() apps.App { return New(32, 8) }, func(t *testing.T, a apps.App, p int) {
		m := a.(*MM)
		if fresh := serialRow0(32); !slices.Equal(m.serial, fresh) {
			t.Fatalf("%d procs: shared reference %v, fresh %v", p, m.serial, fresh)
		}
		m.c0[p%len(m.c0)] += 1e-6 * math.Max(1, math.Abs(m.serial[p%len(m.c0)]))
		if m.Verify() == nil {
			t.Fatalf("%d procs: Verify accepted a perturbed product", p)
		}
	})
}
