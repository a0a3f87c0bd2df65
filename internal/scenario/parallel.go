package scenario

import "fmt"

// ParallelEligible reports whether s's experiment can execute on a
// sharded cluster (internal/sim/par), and the first blocking reason when
// it cannot. The shard count itself (whether it divides Nodes) is a
// separate run-time check: eligibility is a property of the experiment,
// not of how many cores the host happens to have.
func ParallelEligible(s Spec) (bool, string) {
	s = s.Normalize()
	if s.Kind != KindServing {
		return false, fmt.Sprintf("kind %q runs on the single-engine drivers", s.Kind)
	}
	if s.Fault.Spec != "" {
		return false, "fault injection draws from one global schedule"
	}
	if s.Obs.Enabled() {
		return false, "the observability collectors share one tracer across engines"
	}
	if s.Obs.Forensics != "" {
		return false, "the flight recorder's reservoirs are engine-global"
	}
	for _, a := range specArchs(s) {
		if a.NetLatency <= 0 {
			return false, fmt.Sprintf("arch %s has no wire latency: the lookahead window would be empty", a.Name)
		}
	}
	return true, ""
}

// servingShards resolves the effective shard count for a serving run:
// the spec's requested SimShards, reduced to 1 — with the reason — when
// the spec is ineligible or the count does not split the cluster into
// equal node blocks.
func servingShards(s Spec) (int, string) {
	n := s.Topology.SimShards
	if n <= 1 {
		return 1, ""
	}
	if ok, why := ParallelEligible(s); !ok {
		return 1, why
	}
	nodes := s.Topology.Nodes
	if n > nodes {
		return 1, fmt.Sprintf("%d shards exceed %d nodes", n, nodes)
	}
	if nodes%n != 0 {
		return 1, fmt.Sprintf("%d nodes do not split into %d equal shards", nodes, n)
	}
	return n, ""
}

// AutoShards picks a shard count for nodes on a host with maxProcs
// schedulable threads: the largest divisor of nodes no bigger than
// either. `mproxy run -shards 0` uses it with runtime.GOMAXPROCS.
func AutoShards(nodes, maxProcs int) int {
	if nodes < 1 || maxProcs < 1 {
		return 1
	}
	n := min(maxProcs, nodes)
	for ; n > 1; n-- {
		if nodes%n == 0 {
			return n
		}
	}
	return 1
}
