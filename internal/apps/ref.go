package apps

import "sync"

// Serial references are shared across runs. Figure 8 runs every program
// at 31 (design point, processor count) cells, and each cell's Setup
// needs the same serial reference its Verify compares against; the
// programs compute those references in plain Go outside the simulation,
// so recomputing one per cell repeats identical host work (Moldy's is a
// whole O(atoms²·iterations) sweep). Reference computes each distinct
// reference once per process and hands every later caller the same
// value.
//
// The contract has two halves:
//   - the key holds every input the computation reads, so two runs share
//     a value only when a fresh computation would give both the same one
//     (Moldy's reference depends on the processor count, so its key
//     carries it); a key's dynamic type names its program, so keys of
//     different programs never collide;
//   - a cached value is read-only: callers compare against it and never
//     write through it, since concurrent runs (Figure 8's worker pool)
//     share it.

// refEntry is one cached reference: once guards the computation, v holds
// its result.
type refEntry struct {
	once sync.Once
	v    any
}

var (
	refMu sync.Mutex
	refs  = map[any]*refEntry{}
)

// Reference returns compute's result for key, calling compute only the
// first time the process asks for key; concurrent first callers wait for
// the one computation. See the contract above.
func Reference[K comparable, V any](key K, compute func() V) V {
	refMu.Lock()
	e, ok := refs[key]
	if !ok {
		e = &refEntry{}
		refs[key] = e
	}
	refMu.Unlock()
	e.once.Do(func() { e.v = compute() })
	return e.v.(V)
}
