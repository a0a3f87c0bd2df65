package fft

import (
	"maps"
	"math/cmplx"
	"testing"

	"mproxy/internal/apps"
	"mproxy/internal/apps/apptest"
)

// TestSharedReference checks, at test scale and every Figure 8 processor
// count, that the shared reference a run verified against equals a fresh
// serial computation, and that Verify still rejects a coefficient
// perturbed beyond its tolerance.
func TestSharedReference(t *testing.T) {
	apptest.EachProcs(t, func() apps.App { return New(16, 32) }, func(t *testing.T, a apps.App, p int) {
		f := a.(*FFT)
		if fresh := spotDFT(16, 32); !maps.Equal(f.serial, fresh) {
			t.Fatalf("%d procs: shared reference %v, fresh %v", p, f.serial, fresh)
		}
		k := 1
		f.spot[k] += complex(1e-4*(1+cmplx.Abs(f.serial[k])), 0)
		if f.Verify() == nil {
			t.Fatalf("%d procs: Verify accepted a perturbed coefficient", p)
		}
	})
}
