// Package water reimplements Water, the paper's CRL adaptation of the
// SPLASH-2 "n-squared" molecular dynamics code (Table 5: 512 molecules).
// Molecule positions live in CRL regions chunked across processors; each
// timestep every processor reads all chunks through the coherence protocol,
// computes the pairwise forces for its own molecules, and writes its chunk
// back — the paper measures the steady-state iterations.
package water

import (
	"fmt"
	"math"

	"mproxy/internal/apps"
	"mproxy/internal/costmodel"
	"mproxy/internal/crl"
)

// molWords is the per-molecule record in a region: x, y, z, pad.
const molWords = 4

// chunkSize is molecules per region (4*8*16 = 512 bytes, a PIO-sized
// region like the paper's small CRL messages).
const chunkSize = 16

// Water is one run of the program.
type Water struct {
	Mols  int
	Steps int

	rids   []crl.RID
	energy []float64
	serial float64
}

// New returns a Water instance.
func New(mols, steps int) *Water { return &Water{Mols: mols, Steps: steps} }

// Name implements apps.App.
func (w *Water) Name() string { return "Water" }

func chunks(n int) int { return (n + chunkSize - 1) / chunkSize }

// initPos places molecules on a jittered cubic lattice.
func initPos(n int) []float64 {
	pos := make([]float64, n*3)
	side := int(math.Cbrt(float64(n))) + 1
	for i := 0; i < n; i++ {
		x, y, z := i%side, (i/side)%side, i/(side*side)
		pos[3*i] = float64(x)*1.2 + 0.05*math.Sin(float64(7*i))
		pos[3*i+1] = float64(y)*1.2 + 0.05*math.Cos(float64(5*i))
		pos[3*i+2] = float64(z)*1.2 + 0.05*math.Sin(float64(3*i+1))
	}
	return pos
}

const dt = 0.002

// sweep computes forces on molecules [lo,hi) from the full position set
// and integrates them in place (velocity-free leapfrog against prev).
// It returns the slice's potential energy and interaction count.
func sweep(pos, prev, next []float64, n, lo, hi int) float64 {
	energy := 0.0
	for i := lo; i < hi; i++ {
		var fx, fy, fz float64
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dx := pos[3*j] - pos[3*i]
			dy := pos[3*j+1] - pos[3*i+1]
			dz := pos[3*j+2] - pos[3*i+2]
			r2 := dx*dx + dy*dy + dz*dz + 0.3
			inv := 1 / r2
			inv3 := inv * inv * inv
			// Lennard-Jones force magnitude / r.
			fm := (12*inv3*inv3 - 6*inv3) * inv
			fx -= dx * fm
			fy -= dy * fm
			fz -= dz * fm
			energy += inv3*inv3 - inv3
		}
		// Verlet step: next = 2 pos - prev + dt^2 f.
		next[3*i] = 2*pos[3*i] - prev[3*i] + dt*dt*fx
		next[3*i+1] = 2*pos[3*i+1] - prev[3*i+1] + dt*dt*fy
		next[3*i+2] = 2*pos[3*i+2] - prev[3*i+2] + dt*dt*fz
	}
	return energy
}

// serialRun computes the reference final potential energy.
func serialRun(n, steps int) float64 {
	pos := initPos(n)
	prev := append([]float64(nil), pos...)
	next := make([]float64, len(pos))
	total := 0.0
	for s := 0; s < steps; s++ {
		total = sweep(pos, prev, next, n, 0, n)
		prev, pos, next = pos, next, prev
	}
	return total
}

// Setup implements apps.App.
func (w *Water) Setup(env *apps.Env) {
	nc := chunks(w.Mols)
	p := env.Procs()
	w.energy = make([]float64, p)
	w.rids = make([]crl.RID, nc)
	for c := 0; c < nc; c++ {
		w.rids[c] = env.CRL.Create(c%p, chunkSize*molWords*8)
	}
	w.serial = apps.Reference(refKey{w.Mols, w.Steps}, func() float64 { return serialRun(w.Mols, w.Steps) })
}

// refKey keys Water's shared serial reference.
type refKey struct{ mols, steps int }

// chunkRange returns the molecule range of chunk c.
func (w *Water) chunkRange(c int) (lo, hi int) {
	lo = c * chunkSize
	hi = lo + chunkSize
	if hi > w.Mols {
		hi = w.Mols
	}
	return
}

// Body implements apps.App.
func (w *Water) Body(env *apps.Env, rank int) {
	nd := env.CRL.Node(rank)
	ep := env.Fab.Endpoint(rank)
	co := env.Coll.Comm(rank)
	p := env.Procs()
	n := w.Mols
	nc := chunks(n)

	regs := make([]*crl.Region, nc)
	for c := 0; c < nc; c++ {
		regs[c] = nd.Map(w.rids[c])
	}
	// Initialize owned chunks.
	init := initPos(n)
	for c := 0; c < nc; c++ {
		if c%p != rank {
			continue
		}
		lo, hi := w.chunkRange(c)
		regs[c].StartWrite()
		v := regs[c].F64(0, chunkSize*molWords)
		for i := lo; i < hi; i++ {
			for d := 0; d < 3; d++ {
				v.Set((i-lo)*molWords+d, init[3*i+d])
			}
		}
		regs[c].EndWrite()
	}
	co.Barrier()

	env.MarkStart(rank)
	pos := make([]float64, n*3)
	prev := append([]float64(nil), init...)
	next := make([]float64, n*3)
	var local float64
	for s := 0; s < w.Steps; s++ {
		// Read every chunk through CRL.
		for c := 0; c < nc; c++ {
			lo, hi := w.chunkRange(c)
			regs[c].StartRead()
			v := regs[c].F64(0, chunkSize*molWords)
			for i := lo; i < hi; i++ {
				for d := 0; d < 3; d++ {
					pos[3*i+d] = v.Get((i-lo)*molWords + d)
				}
			}
			regs[c].EndRead()
			ep.Compute(costmodel.MemRefs(3 * (hi - lo)))
		}
		co.Barrier()
		// Compute forces and integrate my chunks.
		local = 0
		pairs := 0
		for c := rank; c < nc; c += p {
			lo, hi := w.chunkRange(c)
			local += sweep(pos, prev, next, n, lo, hi)
			pairs += (hi - lo) * (n - 1)
		}
		ep.Compute(costmodel.Flops(16 * pairs))
		// Write back my chunks.
		for c := rank; c < nc; c += p {
			lo, hi := w.chunkRange(c)
			regs[c].StartWrite()
			v := regs[c].F64(0, chunkSize*molWords)
			for i := lo; i < hi; i++ {
				for d := 0; d < 3; d++ {
					v.Set((i-lo)*molWords+d, next[3*i+d])
				}
			}
			regs[c].EndWrite()
			// prev for my molecules advances to the old positions.
			for i := lo; i < hi; i++ {
				for d := 0; d < 3; d++ {
					prev[3*i+d] = pos[3*i+d]
				}
			}
		}
		co.Barrier()
	}
	total := co.AllReduce(local, 0)
	w.energy[rank] = total
	env.MarkStop(rank)
}

// Verify implements apps.App.
func (w *Water) Verify() error {
	for r, e := range w.energy {
		if math.Abs(e-w.serial) > 1e-9*math.Max(1, math.Abs(w.serial)) {
			return fmt.Errorf("rank %d energy %.12g, serial %.12g", r, e, w.serial)
		}
	}
	return nil
}
