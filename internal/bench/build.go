package bench

import (
	"fmt"

	"mproxy/internal/am"
	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/kv"
	"mproxy/internal/machine"
	"mproxy/internal/machine/topo"
	"mproxy/internal/sim"
)

// buildNodes is the build-1k row's cluster size: the serve-1k workload's.
const buildNodes = 1024

// buildServing builds, and drops, the serving stack one serve-1k load
// point runs on: an MP1 fat-tree of the given size with one server and
// one client process per node, through the constructor sequence the
// open-loop driver calls (engine, cluster, interconnect, fabric, active
// messages, KV service). It returns the engine, which has scheduled the
// agents' spawn events and nothing else.
func buildServing(nodes int) (*sim.Engine, error) {
	a, ok := arch.ByName("MP1")
	if !ok {
		return nil, fmt.Errorf("unknown arch MP1")
	}
	const ppn = 2
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: nodes, ProcsPerNode: ppn, ProxiesPerNode: 1}, a)
	cl.SetInterconnect(topo.NewNet(cl, topo.FatTree(nodes)))
	f := comm.NewWith(cl, comm.Options{CommandQueueCap: 64})
	l := am.New(f)
	servers := make([]int, nodes)
	for n := range servers {
		servers[n] = n * ppn
	}
	kv.New(l, kv.Config{Servers: servers, ValueBytes: 64, ScanCount: 16, Replication: 2})
	return eng, nil
}

// benchBuild measures construction: one op builds the serve-1k stack.
func benchBuild(ops int64) (counts, error) {
	var c counts
	for i := int64(0); i < ops; i++ {
		eng, err := buildServing(buildNodes)
		if err != nil {
			return counts{}, err
		}
		c.events += eng.Scheduled()
	}
	return c, nil
}
