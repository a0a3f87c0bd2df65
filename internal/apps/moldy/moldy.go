// Package moldy reimplements Moldy, the paper's native-RMA application: a
// Monte-Carlo molecular-dynamics simulation whose main communication is a
// broadcast of each processor's updated atom slice between iterations,
// performed with PUT operations into every other processor's replica
// (Table 5: 1 immunoglobin molecule, 10 iterations).
package moldy

import (
	"fmt"
	"math"

	"mproxy/internal/apps"
	"mproxy/internal/coll"
	"mproxy/internal/costmodel"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
)

// doublesPerAtom: position (3) and velocity (3).
const doublesPerAtom = 6

// Moldy is one run of the program.
type Moldy struct {
	Atoms int
	Iters int

	replicas []*memory.Segment // per-rank replica of the whole system
	arrive   []memory.FlagRef  // per-rank slice-arrival counters
	energy   []float64         // per-rank final energy (must agree)
	serial   float64           // reference energy from a serial run
}

// New returns a Moldy instance. atoms is the molecule size.
func New(atoms, iters int) *Moldy { return &Moldy{Atoms: atoms, Iters: iters} }

// Name implements apps.App.
func (m *Moldy) Name() string { return "Moldy" }

// lcg is the deterministic pseudo-random stream used for the Monte-Carlo
// moves; identical in the simulated and serial runs.
type lcg uint64

func (r *lcg) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(*r>>11) / float64(1<<53)
}

// Setup implements apps.App.
func (m *Moldy) Setup(env *apps.Env) {
	p := env.Procs()
	reg := env.Fab.Registry()
	bytes := m.Atoms * doublesPerAtom * 8
	m.replicas = make([]*memory.Segment, p)
	m.arrive = make([]memory.FlagRef, p)
	m.energy = make([]float64, p)
	for r := 0; r < p; r++ {
		m.replicas[r] = reg.NewSegment(r, bytes)
		m.replicas[r].GrantAll(p)
		m.arrive[r] = reg.NewFlag(r)
	}
	// Identical initial configuration in every replica.
	init := initialState(m.Atoms)
	for r := 0; r < p; r++ {
		memory.Float64s(m.replicas[r], 0, m.Atoms*doublesPerAtom).Store(init)
	}
	m.serial = apps.Reference(refKey{m.Atoms, m.Iters, p}, func() float64 {
		return serialEnergy(m.Atoms, m.Iters, p)
	})
}

// refKey keys Moldy's shared serial reference: the Monte-Carlo streams are
// seeded per (iteration, rank), so the energy depends on the processor
// count as well as the problem size.
type refKey struct{ atoms, iters, procs int }

func initialState(n int) []float64 {
	state := make([]float64, n*doublesPerAtom)
	rng := lcg(12345)
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			state[i*doublesPerAtom+d] = rng.next() * 10
		}
	}
	return state
}

// sliceBounds returns the atom range owned by a rank.
func sliceBounds(atoms, procs, rank int) (lo, hi int) {
	per := (atoms + procs - 1) / procs
	lo = rank * per
	hi = lo + per
	if hi > atoms {
		hi = atoms
	}
	if lo > hi {
		lo = hi
	}
	return
}

// step performs one Monte-Carlo sweep over [lo,hi) against the full system
// held in state, returning the slice's potential-energy contribution.
func step(state []float64, atoms, lo, hi, iter, rank int) float64 {
	rng := lcg(uint64(1000*iter + rank + 7))
	energy := 0.0
	for i := lo; i < hi; i++ {
		// Propose a move.
		for d := 0; d < 3; d++ {
			state[i*doublesPerAtom+d] += (rng.next() - 0.5) * 0.1
		}
		// Lennard-Jones-ish pair energy against all atoms.
		xi, yi, zi := state[i*doublesPerAtom], state[i*doublesPerAtom+1], state[i*doublesPerAtom+2]
		for j := 0; j < atoms; j++ {
			if j == i {
				continue
			}
			pj := state[j*doublesPerAtom : j*doublesPerAtom+3]
			dx, dy, dz := xi-pj[0], yi-pj[1], zi-pj[2]
			r2 := dx*dx + dy*dy + dz*dz + 0.5 // softening
			inv := 1 / r2
			inv3 := inv * inv * inv
			energy += inv3*inv3 - inv3
		}
	}
	return energy
}

// serialEnergy computes the reference result with the parallel program's
// data dependences: every rank's sweep in iteration k reads the global
// state produced by iteration k-1.
func serialEnergy(atoms, iters, procs int) float64 {
	prev := initialState(atoms)
	total := 0.0
	for it := 0; it < iters; it++ {
		cur := append([]float64(nil), prev...)
		total = 0
		for r := 0; r < procs; r++ {
			lo, hi := sliceBounds(atoms, procs, r)
			work := append([]float64(nil), prev...)
			total += step(work, atoms, lo, hi, it, r)
			copy(cur[lo*doublesPerAtom:hi*doublesPerAtom], work[lo*doublesPerAtom:hi*doublesPerAtom])
		}
		prev = cur
	}
	return total
}

// Body implements apps.App.
func (m *Moldy) Body(env *apps.Env, rank int) {
	p := env.Procs()
	ep := env.Fab.Endpoint(rank)
	lo, hi := sliceBounds(m.Atoms, p, rank)
	mine := m.replicas[rank]
	view := memory.Float64s(mine, 0, m.Atoms*doublesPerAtom)
	sliceOff := lo * doublesPerAtom * 8
	sliceBytes := (hi - lo) * doublesPerAtom * 8

	env.MarkStart(rank)
	var local float64
	var state []float64 // this rank's copy of the iteration's input state
	co := env.Coll.Comm(rank)
	for it := 0; it < m.Iters; it++ {
		// Read the iteration's input state; the barrier below guarantees
		// nobody overwrites a replica before every rank has read its own.
		state = view.LoadInto(state)
		co.Barrier()
		local = step(state, m.Atoms, lo, hi, it, rank)
		// Write back only this rank's slice.
		view.Slice(lo*doublesPerAtom, hi*doublesPerAtom).Store(
			state[lo*doublesPerAtom : hi*doublesPerAtom])
		// Charge the sweep: ~11 flops per pair plus the proposal moves.
		pairs := (hi - lo) * (m.Atoms - 1)
		ep.Compute(costmodel.Flops(11*pairs + 6*(hi-lo)))

		// Broadcast the updated slice into every replica with PUTs; the
		// arrival counter at each destination tracks slice delivery.
		for r := 0; r < p; r++ {
			if r == rank {
				continue
			}
			err := ep.Put(mine.Addr(sliceOff), m.replicas[r].Addr(sliceOff), sliceBytes,
				memory.FlagRef{}, m.arrive[r])
			if err != nil {
				panic(fmt.Sprintf("moldy: %v", err))
			}
		}
		// Wait until all other ranks' slices for this iteration arrived.
		ep.WaitFlag(m.arrive[rank], int64((it+1)*(p-1)))
	}
	// Combine the per-slice energies.
	total := co.AllReduce(local, coll.Sum)
	m.energy[rank] = total
	env.MarkStop(rank)
	_ = sim.Time(0)
}

// Verify implements apps.App.
func (m *Moldy) Verify() error {
	for r, e := range m.energy {
		if math.Abs(e-m.serial) > 1e-6*math.Max(1, math.Abs(m.serial)) {
			return fmt.Errorf("rank %d energy %.9g, serial %.9g", r, e, m.serial)
		}
	}
	return nil
}
