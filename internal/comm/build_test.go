package comm

import (
	"math"
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/machine"
	"mproxy/internal/machine/topo"
	"mproxy/internal/proxy"
	"mproxy/internal/sim"
)

// TestBuildAllocsPerAgent pins what building a message-proxy cluster and
// its fabric allocates per communication agent: the agent's task wake
// closure and its one continuation. The agent embeds its task, its
// fabric frame is its Exec (scan observer, restart and idle hooks
// included), and every other component comes from a slab, so nothing
// else grows with the agent count. The figure is the slope between a
// 16-node and a 64-node fat-tree, which cancels what a cluster allocates
// once; it is rounded to whole allocations, because the slope also
// carries the few that grow with the log of the cluster (the engine's
// actor list doubles its blocks).
func TestBuildAllocsPerAgent(t *testing.T) {
	const perAgent = 2
	a, ok := arch.ByName("MP1")
	if !ok {
		t.Fatal("unknown arch MP1")
	}
	for _, tc := range []struct {
		name    string
		proxies int
		sched   string
	}{
		{"1proxy", 1, ""},
		{"2proxies-steal", 2, proxy.SchedSteal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(nodes int) float64 {
				return testing.AllocsPerRun(3, func() {
					cfg := machine.Config{Nodes: nodes, ProcsPerNode: 2, ProxiesPerNode: tc.proxies, ProxySched: tc.sched}
					cl := machine.New(sim.NewEngine(), cfg, a)
					cl.SetInterconnect(topo.NewNet(cl, topo.FatTree(nodes)))
					NewWith(cl, Options{CommandQueueCap: 64})
				})
			}
			const small, large = 16, 64
			got := (build(large) - build(small)) / float64((large-small)*tc.proxies)
			if math.Round(got) > perAgent {
				t.Errorf("building the cluster and fabric allocates %.2f times per agent, want <= %d", got, perAgent)
			}
		})
	}
}
