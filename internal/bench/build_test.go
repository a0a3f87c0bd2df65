package bench

import "testing"

// TestBuildAllocsPerNode pins what constructing the serve-1k stack
// allocates: a fixed count per cluster plus a small constant per node
// (its agent's task wake closure and its one continuation), measured at
// 64 and at 1,024 nodes. Components come from one slab per kind and
// names from one string per constructor; before that, a 1,024-node build
// made about 61 allocations per node, and before agents embedded their
// tasks and ran one state machine, about 9.
func TestBuildAllocsPerNode(t *testing.T) {
	const perCluster, perNode = 200, 3
	for _, nodes := range []int{64, 1024} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := buildServing(nodes); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d nodes: %.0f allocations", nodes, allocs)
		if limit := float64(perCluster + perNode*nodes); allocs > limit {
			t.Errorf("building a %d-node serving stack allocates %.0f times, want <= %d + %d per node = %.0f",
				nodes, allocs, perCluster, perNode, limit)
		}
	}
}
