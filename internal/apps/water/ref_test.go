package water

import (
	"math"
	"testing"

	"mproxy/internal/apps"
	"mproxy/internal/apps/apptest"
)

// TestSharedReference checks, at test scale and every Figure 8 processor
// count, that the shared reference a run verified against equals a fresh
// serial computation, and that Verify still rejects an energy perturbed
// beyond its tolerance.
func TestSharedReference(t *testing.T) {
	apptest.EachProcs(t, func() apps.App { return New(48, 2) }, func(t *testing.T, a apps.App, p int) {
		w := a.(*Water)
		if fresh := serialRun(48, 2); w.serial != fresh {
			t.Fatalf("%d procs: shared reference %v, fresh %v", p, w.serial, fresh)
		}
		w.energy[p-1] += 1e-6 * math.Max(1, math.Abs(w.serial))
		if w.Verify() == nil {
			t.Fatalf("%d procs: Verify accepted a perturbed energy", p)
		}
	})
}
