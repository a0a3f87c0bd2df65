// Package wator reimplements Wator, the paper's Split-C n-body simulation
// of fish in a current (Table 5: 400 fish, 10 simulated seconds). Each
// processor owns a cyclic slice of the fish; computing the forces on local
// fish requires GETs of the positions and masses of remotely mapped fish —
// small, frequent reads that make Wator one of the two applications that
// stress the communication subsystem hardest (Section 5.3).
package wator

import (
	"fmt"
	"math"

	"mproxy/internal/apps"
	"mproxy/internal/costmodel"
	"mproxy/internal/splitc"
)

// fishWords is the per-fish record: x, y, mass, generation pad.
const fishWords = 4

// Wator is one run of the program.
type Wator struct {
	Fish  int
	Steps int

	sums   []float64 // per-rank final position checksums
	serial float64
}

// New returns a Wator instance.
func New(fish, steps int) *Wator { return &Wator{Fish: fish, Steps: steps} }

// Name implements apps.App.
func (w *Wator) Name() string { return "Wator" }

// initFish places fish deterministically on a disc with varied masses.
func initFish(n int) []float64 {
	fish := make([]float64, n*fishWords)
	for i := 0; i < n; i++ {
		a := float64(i) * 2.399963 // golden-angle spiral
		r := math.Sqrt(float64(i+1)) * 0.7
		fish[i*fishWords+0] = r * math.Cos(a)
		fish[i*fishWords+1] = r * math.Sin(a)
		fish[i*fishWords+2] = 1 + float64(i%7)*0.25 // mass
	}
	return fish
}

// force computes the current-plus-attraction force on fish i given the
// full snapshot.
func force(snap []float64, n, i int) (fx, fy float64) {
	xi := snap[i*fishWords]
	yi := snap[i*fishWords+1]
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		dx := snap[j*fishWords] - xi
		dy := snap[j*fishWords+1] - yi
		r2 := dx*dx + dy*dy + 0.05
		w := snap[j*fishWords+2] / (r2 * math.Sqrt(r2))
		fx += dx * w
		fy += dy * w
	}
	// The current: a steady drift field.
	fx += 0.3 - 0.01*xi
	fy += -0.01 * yi
	return
}

const dt = 0.05

// advance moves fish i (positions only; the overdamped dynamics fold the
// velocity into the position update).
func advance(snap []float64, out []float64, n, i int) {
	fx, fy := force(snap, n, i)
	m := snap[i*fishWords+2]
	out[0] = snap[i*fishWords] + dt*fx/m
	out[1] = snap[i*fishWords+1] + dt*fy/m
}

// serialRun produces the reference checksum.
func serialRun(n, steps int) float64 {
	fish := initFish(n)
	next := append([]float64(nil), fish...)
	for s := 0; s < steps; s++ {
		var out [2]float64
		for i := 0; i < n; i++ {
			advance(fish, out[:], n, i)
			next[i*fishWords] = out[0]
			next[i*fishWords+1] = out[1]
		}
		fish, next = next, fish
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += fish[i*fishWords] + 2*fish[i*fishWords+1]
	}
	return sum
}

// Setup implements apps.App.
func (w *Wator) Setup(env *apps.Env) {
	w.sums = make([]float64, env.Procs())
	w.serial = apps.Reference(refKey{w.Fish, w.Steps}, func() float64 { return serialRun(w.Fish, w.Steps) })
}

// refKey keys Wator's shared serial reference.
type refKey struct{ fish, steps int }

// Body implements apps.App.
func (w *Wator) Body(env *apps.Env, rank int) {
	c := env.SC.Ctx(rank)
	p := c.Procs()
	n := w.Fish
	maxLocal := (n + p - 1) / p

	// Layout: local fish records, then a full-system snapshot buffer.
	localBase := c.AllAlloc(maxLocal * fishWords * 8)
	snapBase := c.AllAlloc(n * fishWords * 8)

	// Load this rank's fish (global fish k*p+rank is local slot k).
	init := initFish(n)
	local := c.LocalF64(localBase, maxLocal*fishWords)
	myCount := 0
	for g := rank; g < n; g += p {
		for d := 0; d < fishWords; d++ {
			local.Set(myCount*fishWords+d, init[g*fishWords+d])
		}
		myCount++
	}
	c.Barrier()

	env.MarkStart(rank)
	snap := c.LocalF64(snapBase, n*fishWords)
	var out [2]float64
	for s := 0; s < w.Steps; s++ {
		// Snapshot every fish: local ones by copy, remote ones with a GET
		// of the 32-byte fish record (the paper's hot loop).
		for g := 0; g < n; g++ {
			owner := g % p
			slot := g / p
			if owner == rank {
				for d := 0; d < fishWords; d++ {
					snap.Set(g*fishWords+d, local.Get(slot*fishWords+d))
				}
				c.Endpoint().Compute(costmodel.MemRefs(4))
				continue
			}
			c.GetBulk(snapBase+g*fishWords*8, splitc.GPtr{Proc: owner, Off: localBase + slot*fishWords*8}, fishWords*8)
			c.Sync()
		}
		// All snapshots must be complete before anyone moves a fish.
		c.Barrier()
		snapVals := snap.Load()
		for k := 0; k < myCount; k++ {
			g := k*p + rank
			advance(snapVals, out[:], n, g)
			local.Set(k*fishWords, out[0])
			local.Set(k*fishWords+1, out[1])
		}
		c.Endpoint().Compute(costmodel.Flops(myCount * (60*n + 10)))
		c.Barrier()
	}
	// Checksum over the final positions (gather via one more snapshot).
	for g := 0; g < n; g++ {
		owner := g % p
		slot := g / p
		if owner == rank {
			for d := 0; d < fishWords; d++ {
				snap.Set(g*fishWords+d, local.Get(slot*fishWords+d))
			}
			continue
		}
		c.GetBulk(snapBase+g*fishWords*8, splitc.GPtr{Proc: owner, Off: localBase + slot*fishWords*8}, fishWords*8)
	}
	c.Sync()
	sum := 0.0
	final := snap.Load()
	for i := 0; i < n; i++ {
		sum += final[i*fishWords] + 2*final[i*fishWords+1]
	}
	w.sums[rank] = sum
	env.MarkStop(rank)
}

// Verify implements apps.App.
func (w *Wator) Verify() error {
	for r, s := range w.sums {
		if math.Abs(s-w.serial) > 1e-9*math.Max(1, math.Abs(w.serial)) {
			return fmt.Errorf("rank %d checksum %.12g, serial %.12g", r, s, w.serial)
		}
	}
	return nil
}
