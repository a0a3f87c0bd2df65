package pray

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
	apptest.EachProcs(t, func() apps.App { return New(32, 24) }, func(t *testing.T, a apps.App, p int) {
		r := a.(*PRay)
		if fresh := serialRender(32, 24); r.serial != fresh {
			t.Fatalf("%d procs: shared reference %v, fresh %v", p, r.serial, fresh)
		}
		r.sums[p-1] += 1e-6 * math.Max(1, math.Abs(r.serial))
		if r.Verify() == nil {
			t.Fatalf("%d procs: Verify accepted a perturbed checksum", p)
		}
	})
}
