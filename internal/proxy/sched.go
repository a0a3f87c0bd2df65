package proxy

import (
	"fmt"
	"strings"
)

// Sched is the per-node proxy-scheduling policy: it decides which of a
// node's proxy processors serves each endpoint's command stream, and
// whether idle proxies may steal scan turns from loaded siblings. The
// policy owns both sides of the binding — an endpoint's command queue is
// registered with its home proxy's scanner, and packets addressed to the
// endpoint are dispatched to the same proxy — so a stream's cache and
// queue state stays on one core unless stealing moves a turn.
//
// Policies must be pure functions of their arguments: the assignment is
// computed once at fabric construction and never consults runtime state,
// which is what keeps runs bit-deterministic.
type Sched interface {
	// Name returns the policy's registry name.
	Name() string
	// Home returns the proxy index (in [0, nProxies)) serving the
	// endpoint at the given node, node-local slot, and global rank.
	Home(node, slot, rank, nProxies int) int
	// Steal reports whether idle proxies steal scan turns from loaded
	// siblings on the same node.
	Steal() bool
}

// Policy registry names.
const (
	SchedStatic = "static"
	SchedShard  = "shard"
	SchedSteal  = "steal"
)

// SchedNames lists every valid policy name in canonical order.
func SchedNames() []string { return []string{SchedStatic, SchedShard, SchedSteal} }

// SchedByName resolves a policy name; the empty string means the default
// static slot-modulo policy.
func SchedByName(name string) (Sched, error) {
	switch name {
	case "", SchedStatic:
		return staticSched{}, nil
	case SchedShard:
		return shardSched{}, nil
	case SchedSteal:
		return stealSched{}, nil
	}
	return nil, fmt.Errorf("proxy: unknown sched policy %q (want one of %s)",
		name, strings.Join(SchedNames(), ", "))
}

// staticSched is the paper's binding: slot modulo proxy count. Every
// node assigns identically — slot 0 always lands on proxy 0 — which is
// exactly the behaviour the fabric hardwired before the policy layer
// existed, and the baseline every golden output is blessed against.
type staticSched struct{}

func (staticSched) Name() string                      { return SchedStatic }
func (staticSched) Home(_, slot, _, nProxies int) int { return slot % nProxies }
func (staticSched) Steal() bool                       { return false }

// shardSched hashes the endpoint's global rank, so a KV shard's command
// stream (its server endpoint's submissions and the packets addressed to
// it) stays on one proxy core while the server->proxy assignment
// decorrelates across nodes — under static modulo every node's slot-0
// server pins the same proxy index, stacking the hottest streams on one
// core per node.
type shardSched struct{}

func (shardSched) Name() string { return SchedShard }
func (shardSched) Home(_, _, rank, nProxies int) int {
	return int(Mix64(uint64(rank)) % uint64(nProxies))
}
func (shardSched) Steal() bool { return false }

// stealSched places like static but lets an idle proxy steal a scan turn
// from a loaded sibling's command queues, charged a cross-queue AgentMiss
// penalty by the fabric so stealing is never free in the cost model.
type stealSched struct{}

func (stealSched) Name() string                      { return SchedSteal }
func (stealSched) Home(_, slot, _, nProxies int) int { return slot % nProxies }
func (stealSched) Steal() bool                       { return true }

// Mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mix used
// for shard-affine placement and for the seeded victim order of the
// stealing policy. Exported so the fabric's steal path and the policy
// hash the same way.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
