package apps_test

import (
	"runtime"
	"testing"

	"mproxy/internal/apps"
	"mproxy/internal/apps/mm"
	"mproxy/internal/arch"
	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
)

// runApp executes an app on n single-processor nodes and returns the
// measured time.
func runApp(t *testing.T, app apps.App, n int, a arch.Params) sim.Time {
	t.Helper()
	env := apps.NewEnv(machine.Config{Nodes: n, ProcsPerNode: 1}, a, 1<<22)
	d, err := apps.Run(env, app)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("%s: measured time %v", app.Name(), d)
	}
	return d
}

// TestRunReleasesHeapPages checks that a verified run hands its Split-C
// heaps' pages back: every kernel-backed segment keeps its size and, on
// Linux, reads zero again.
func TestRunReleasesHeapPages(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("released pages read zero only on Linux")
	}
	const heap = 1 << 22
	env := apps.NewEnv(machine.Config{Nodes: 2, ProcsPerNode: 1}, arch.MP1, heap)
	if _, err := apps.Run(env, mm.New(32, 8)); err != nil {
		t.Fatal(err)
	}
	heaps := 0
	for id := memory.ASID(1); ; id++ {
		seg, ok := env.Cl.Reg.Segment(id)
		if !ok {
			break
		}
		if len(seg.Data) < heap {
			continue // the smaller segments stay on the Go heap
		}
		heaps++
		for off, c := range seg.Data {
			if c != 0 {
				t.Fatalf("segment %d byte %d = %d after the run", id, off, c)
			}
		}
	}
	if heaps != 2 {
		t.Fatalf("found %d Split-C heaps, want 2", heaps)
	}
}
