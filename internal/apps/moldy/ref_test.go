package moldy

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
	apptest.EachProcs(t, func() apps.App { return New(96, 2) }, func(t *testing.T, a apps.App, p int) {
		m := a.(*Moldy)
		if fresh := serialEnergy(96, 2, p); m.serial != fresh {
			t.Fatalf("%d procs: shared reference %v, fresh %v", p, m.serial, fresh)
		}
		m.energy[p-1] += 1e-4 * math.Max(1, math.Abs(m.serial))
		if m.Verify() == nil {
			t.Fatalf("%d procs: Verify accepted a perturbed energy", p)
		}
	})
}
