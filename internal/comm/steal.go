package comm

import (
	"mproxy/internal/machine"
	"mproxy/internal/proxy"
)

// Work stealing between a node's proxies (the "steal" scheduling policy).
//
// Placement is static slot-modulo, but a proxy that finds its own work
// queue empty — just before it would go idle — probes its siblings'
// scanners and, if one has marked-non-empty command queues, submits
// itself a steal turn against that victim. The stolen turn runs the same
// scan/decode/send pipeline as a home turn with one extra AgentMiss up
// front: the victim's command-queue state lives in the victim's cache,
// so the cross-queue read is never free in the cost model.
//
// Determinism: the victim rotation is a pure function of (node ID, per-
// node steal counter) through the same splitmix64 mix the shard policy
// uses, the probe order over siblings is fixed, and the steal turn
// itself is an ordinary agent work item — so repeated runs are
// bit-identical. A stolen command leaves the victim's own queued work
// token stale, which the scan path already tolerates (the turn finds
// nothing and retires).

// trySteal runs when a proxy finds its queue empty: probe the siblings
// in seeded rotation and submit one steal turn against the first victim
// whose scanner marks pending commands. The probe itself costs nothing —
// the shared non-empty bit vectors are the same cheap summary the home
// scan uses — the steal turn pays the cross-queue penalty.
func (f *Fabric) trySteal(node *machine.Node, thief int) {
	n := len(node.Agents)
	scans := f.scanners[node.ID]
	cnt := f.stealSeq[node.ID]
	off := int(proxy.Mix64(uint64(node.ID)<<32|cnt) % uint64(n-1))
	for i := 0; i < n-1; i++ {
		v := (thief + 1 + (off+i)%(n-1)) % n
		if !scans[v].Pending() {
			continue
		}
		f.stealSeq[node.ID] = cnt + 1
		node.Agents[thief].Submit(workSteal, v)
		return
	}
}
