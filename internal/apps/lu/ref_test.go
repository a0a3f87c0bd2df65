package lu

import (
	"math"
	"slices"
	"testing"

	"mproxy/internal/apps"
	"mproxy/internal/apps/apptest"
)

// TestSharedReference checks, at test scale and every Figure 8 processor
// count, that the shared reference a run verified against equals a fresh
// serial computation, and that Verify still rejects a factor perturbed
// beyond its tolerance.
func TestSharedReference(t *testing.T) {
	apptest.EachProcs(t, func() apps.App { return New(48, 8) }, func(t *testing.T, a apps.App, p int) {
		l := a.(*LU)
		if fresh := serialLU(48, 8); !slices.Equal(l.serial, fresh) {
			t.Fatalf("%d procs: shared reference differs from a fresh factorization", p)
		}
		i := len(l.result) / 2
		l.result[i] += 1e-6 * math.Max(1, math.Abs(l.serial[i]))
		if l.Verify() == nil {
			t.Fatalf("%d procs: Verify accepted a perturbed factor", p)
		}
	})
}
