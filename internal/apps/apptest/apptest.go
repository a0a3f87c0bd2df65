// Package apptest runs a suite program at every processor count Figure 8
// uses, for the programs' own tests of their shared serial references
// (apps.Reference).
package apptest

import (
	"testing"

	"mproxy/internal/apps"
	"mproxy/internal/arch"
	"mproxy/internal/machine"
)

// Procs are Figure 8's processor counts.
var Procs = []int{1, 2, 4, 8, 16}

// EachProcs runs a fresh instance from newApp on p uniprocessor nodes
// under HW1 for every p in Procs, failing t if the run or its Verify
// fails, and hands check the verified instance. check typically compares
// the reference the instance used with a fresh serial computation and
// then perturbs the result to see Verify reject it.
func EachProcs(t *testing.T, newApp func() apps.App, check func(t *testing.T, app apps.App, procs int)) {
	t.Helper()
	for _, p := range Procs {
		app := newApp()
		env := apps.NewEnv(machine.Config{Nodes: p, ProcsPerNode: 1}, arch.HW1, 1<<22)
		if _, err := apps.Run(env, app); err != nil {
			t.Fatalf("%d procs: %v", p, err)
		}
		check(t, app, p)
	}
}
