package barnes

import (
	"math"
	"testing"

	"mproxy/internal/apps"
	"mproxy/internal/apps/apptest"
)

// TestSharedReference checks, at test scale and every Figure 8 processor
// count, that the shared reference a run verified against equals a fresh
// serial computation, and that Verify still rejects a checksum perturbed
// beyond its tolerance.
func TestSharedReference(t *testing.T) {
	apptest.EachProcs(t, func() apps.App { return New(96, 2) }, func(t *testing.T, a apps.App, p int) {
		b := a.(*Barnes)
		if fresh := serialRun(96, 2); b.serial != fresh {
			t.Fatalf("%d procs: shared reference %v, fresh %v", p, b.serial, fresh)
		}
		b.sums[p-1] += 1e-6 * math.Max(1, math.Abs(b.serial))
		if b.Verify() == nil {
			t.Fatalf("%d procs: Verify accepted a perturbed checksum", p)
		}
	})
}
