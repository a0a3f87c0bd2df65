package timeline

import (
	"fmt"
	"strings"

	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/machine"
	"mproxy/internal/machine/topo"
	"mproxy/internal/sim"
)

// ClusterProbes builds utilization/depth probes for every communication
// agent (with its work-queue depth), NIC output port and DMA engine in
// the cluster. Probe names are copies: a cluster's names share one
// string (package names) that the sampler's series must not keep alive.
func ClusterProbes(c *machine.Cluster) []Probe {
	agentKind := "proxy"
	if c.Arch.Kind == arch.CustomHW {
		agentKind = "adapter"
	}
	var ps []Probe
	for _, nd := range c.Nodes {
		for _, ag := range nd.Agents {
			ag := ag
			ps = append(ps, Probe{
				Name: strings.Clone(ag.Name), Kind: agentKind,
				Busy: func() int64 { return int64(ag.BusyTime()) },
				Util: func(since, busyAt int64) float64 {
					return ag.UtilizationSince(sim.Time(since), sim.Time(busyAt))
				},
				Depth: ag.QueueLen,
			})
		}
		for _, lk := range []struct {
			l    *machine.Link
			kind string
		}{{nd.OutLink, "nic"}, {nd.DMA, "dma"}} {
			l := lk.l
			ps = append(ps, Probe{
				Name: strings.Clone(l.Name()), Kind: lk.kind,
				Busy: func() int64 { return int64(l.BusyTime()) },
				Util: func(since, busyAt int64) float64 {
					return l.UtilizationSince(sim.Time(since), sim.Time(busyAt))
				},
			})
		}
	}
	return ps
}

// FabricProbes builds depth probes for every endpoint's proxy command
// queue (empty on design points without command queues).
func FabricProbes(f *comm.Fabric) []Probe {
	var ps []Probe
	for _, ep := range f.Endpoints() {
		q := ep.CommandQueue()
		if q == nil {
			continue
		}
		ps = append(ps, Probe{
			Name:  fmt.Sprintf("rank%d.cmdq", ep.Rank()),
			Kind:  "cmdq",
			Depth: q.Len,
		})
	}
	return ps
}

// NetProbes builds utilization probes for every switch output link of a
// multi-switch interconnect, so topology runs show per-tier wire load in
// Chrome trace/utilization reports alongside the node NICs (which only
// cover the edge).
func NetProbes(n *topo.Net) []Probe {
	var ps []Probe
	n.EachLink(func(t topo.Tier, l *machine.Link) {
		ps = append(ps, Probe{
			Name: strings.Clone(l.Name()), Kind: "switch." + t.String(),
			Busy: func() int64 { return int64(l.BusyTime()) },
			Util: func(since, busyAt int64) float64 {
				return l.UtilizationSince(sim.Time(since), sim.Time(busyAt))
			},
		})
	})
	return ps
}

// Attach wires the sampler to every cluster, interconnect and fabric the
// process builds from now on, via the machine/topo/comm construction
// hooks. Each
// new cluster replaces the probe set (keeping windows already
// collected); its interconnect's switch links and its fabric's command
// queues are appended when those are built moments later.
func Attach(s *Sampler) {
	machine.OnNewCluster(func(c *machine.Cluster) { s.SetProbes(ClusterProbes(c)) })
	topo.OnNewNet(func(n *topo.Net) { s.AddProbes(NetProbes(n)) })
	comm.OnNewFabric(func(f *comm.Fabric) { s.AddProbes(FabricProbes(f)) })
}

// Detach removes the construction hooks installed by Attach.
func Detach() {
	machine.OnNewCluster(nil)
	topo.OnNewNet(nil)
	comm.OnNewFabric(nil)
}
