// Package barnes reimplements Barnes-Hut, the paper's CRL adaptation of
// the SPLASH-2 hierarchical n-body code (Table 5: 4096 bodies). Body
// records live in CRL regions; each timestep every processor reads the
// body chunks through the coherence protocol, builds the octree, computes
// forces for its own bodies with the theta-criterion traversal, and writes
// its chunks back.
package barnes

import (
	"fmt"
	"math"

	"mproxy/internal/apps"
	"mproxy/internal/costmodel"
	"mproxy/internal/crl"
)

// bodyWords is the per-body record in a region: x, y, z, mass.
const bodyWords = 4

// chunkSize is bodies per region.
const chunkSize = 16

const theta = 0.6
const dt = 0.01

// Barnes is one run of the program.
type Barnes struct {
	Bodies int
	Steps  int

	rids   []crl.RID
	sums   []float64
	serial float64
	tree   arena // octree storage, shared by the ranks (see Body)
}

// New returns a Barnes-Hut instance.
func New(bodies, steps int) *Barnes { return &Barnes{Bodies: bodies, Steps: steps} }

// Name implements apps.App.
func (b *Barnes) Name() string { return "Barnes-Hut" }

// initBodies produces a deterministic spiral-shell distribution.
func initBodies(n int) []float64 {
	bd := make([]float64, n*bodyWords)
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n)
		r := 0.2 + 4*t
		a := float64(i) * 2.399963
		bd[i*bodyWords] = r * math.Cos(a)
		bd[i*bodyWords+1] = r * math.Sin(a)
		bd[i*bodyWords+2] = 2 * (t - 0.5) * math.Cos(float64(i))
		bd[i*bodyWords+3] = 0.5 + float64(i%5)*0.2 // mass
	}
	return bd
}

// octree

type node struct {
	cx, cy, cz, half float64 // cube center and half-width
	mass             float64
	mx, my, mz       float64 // mass-weighted position sum
	body             int     // body index if leaf with one body, else -1
	kids             [8]*node
	leaf             bool
}

// arena hands out octree nodes from chunks it keeps across builds.
// buildTree resets the arena first, so the previous tree's nodes become
// the new tree's storage instead of garbage. A run keeps one arena for
// all its ranks: each rank builds its tree and finishes using it without
// yielding (see Body), so only one tree per run is ever live.
type arena struct {
	chunks [][]node
	used   int // nodes handed out since the last reset
}

// arenaChunk is the number of nodes per arena chunk.
const arenaChunk = 1024

func (a *arena) reset() { a.used = 0 }

func (a *arena) newNode(cx, cy, cz, half float64) *node {
	c, i := a.used/arenaChunk, a.used%arenaChunk
	if c == len(a.chunks) {
		a.chunks = append(a.chunks, make([]node, arenaChunk))
	}
	a.used++
	nd := &a.chunks[c][i]
	*nd = node{cx: cx, cy: cy, cz: cz, half: half, body: -1, leaf: true}
	return nd
}

func (nd *node) octant(x, y, z float64) int {
	o := 0
	if x > nd.cx {
		o |= 1
	}
	if y > nd.cy {
		o |= 2
	}
	if z > nd.cz {
		o |= 4
	}
	return o
}

// insert adds body i, taking new nodes from a (work counts tree-build
// operations for cost charging).
func (nd *node) insert(bd []float64, i int, work *int, a *arena) {
	*work++
	x, y, z := bd[i*bodyWords], bd[i*bodyWords+1], bd[i*bodyWords+2]
	if nd.leaf {
		if nd.body < 0 {
			nd.body = i
			return
		}
		// Split: push the resident body down.
		old := nd.body
		nd.body = -1
		nd.leaf = false
		nd.child(nd.octant(bd[old*bodyWords], bd[old*bodyWords+1], bd[old*bodyWords+2]), a).insert(bd, old, work, a)
	}
	nd.child(nd.octant(x, y, z), a).insert(bd, i, work, a)
}

func (nd *node) child(o int, a *arena) *node {
	if nd.kids[o] == nil {
		q := nd.half / 2
		cx, cy, cz := nd.cx-q, nd.cy-q, nd.cz-q
		if o&1 != 0 {
			cx = nd.cx + q
		}
		if o&2 != 0 {
			cy = nd.cy + q
		}
		if o&4 != 0 {
			cz = nd.cz + q
		}
		nd.kids[o] = a.newNode(cx, cy, cz, q)
	}
	return nd.kids[o]
}

// moments computes the mass and center of mass bottom-up.
func (nd *node) moments(bd []float64) {
	if nd.leaf {
		if nd.body >= 0 {
			i := nd.body
			m := bd[i*bodyWords+3]
			nd.mass = m
			nd.mx = m * bd[i*bodyWords]
			nd.my = m * bd[i*bodyWords+1]
			nd.mz = m * bd[i*bodyWords+2]
		}
		return
	}
	for _, k := range nd.kids {
		if k == nil {
			continue
		}
		k.moments(bd)
		nd.mass += k.mass
		nd.mx += k.mx
		nd.my += k.my
		nd.mz += k.mz
	}
}

// buildTree constructs the octree over all bodies in a, whose previous
// tree it discards.
func buildTree(bd []float64, n int, a *arena) (*node, int) {
	// Bounding cube.
	lim := 1.0
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			if v := math.Abs(bd[i*bodyWords+d]); v > lim {
				lim = v
			}
		}
	}
	a.reset()
	root := a.newNode(0, 0, 0, lim*1.01)
	work := 0
	for i := 0; i < n; i++ {
		root.insert(bd, i, &work, a)
	}
	root.moments(bd)
	return root, work
}

// force accumulates the Barnes-Hut force on body i; interactions counts
// accepted cell/body terms for cost charging.
func (nd *node) force(bd []float64, i int, fx, fy, fz *float64, interactions *int) {
	if nd.mass == 0 {
		return
	}
	xi, yi, zi := bd[i*bodyWords], bd[i*bodyWords+1], bd[i*bodyWords+2]
	px, py, pz := nd.mx/nd.mass, nd.my/nd.mass, nd.mz/nd.mass
	dx, dy, dz := px-xi, py-yi, pz-zi
	r2 := dx*dx + dy*dy + dz*dz
	if nd.leaf {
		if nd.body < 0 || nd.body == i {
			return
		}
		w := nd.mass / ((r2 + 0.05) * math.Sqrt(r2+0.05))
		*fx += dx * w
		*fy += dy * w
		*fz += dz * w
		*interactions++
		return
	}
	if (2*nd.half)*(2*nd.half) < theta*theta*r2 {
		w := nd.mass / ((r2 + 0.05) * math.Sqrt(r2+0.05))
		*fx += dx * w
		*fy += dy * w
		*fz += dz * w
		*interactions++
		return
	}
	for _, k := range nd.kids {
		if k != nil {
			k.force(bd, i, fx, fy, fz, interactions)
		}
	}
}

// advance computes new positions for bodies [lo,hi).
func advance(bd, prev, next []float64, root *node, lo, hi int) int {
	inter := 0
	for i := lo; i < hi; i++ {
		var fx, fy, fz float64
		root.force(bd, i, &fx, &fy, &fz, &inter)
		m := bd[i*bodyWords+3]
		for d, f := range []float64{fx, fy, fz} {
			next[i*bodyWords+d] = 2*bd[i*bodyWords+d] - prev[i*bodyWords+d] + dt*dt*f/m
		}
		next[i*bodyWords+3] = m
	}
	return inter
}

func checksum(bd []float64, n int) float64 {
	s := 0.0
	for i := 0; i < n; i++ {
		s += bd[i*bodyWords] + 2*bd[i*bodyWords+1] + 3*bd[i*bodyWords+2]
	}
	return s
}

// serialRun computes the reference checksum.
func serialRun(n, steps int) float64 {
	bd := initBodies(n)
	prev := append([]float64(nil), bd...)
	next := make([]float64, len(bd))
	var tree arena
	for s := 0; s < steps; s++ {
		root, _ := buildTree(bd, n, &tree)
		advance(bd, prev, next, root, 0, n)
		prev, bd, next = bd, next, prev
	}
	return checksum(bd, n)
}

func chunks(n int) int { return (n + chunkSize - 1) / chunkSize }

// Setup implements apps.App.
func (b *Barnes) Setup(env *apps.Env) {
	p := env.Procs()
	nc := chunks(b.Bodies)
	b.sums = make([]float64, p)
	b.rids = make([]crl.RID, nc)
	for c := 0; c < nc; c++ {
		b.rids[c] = env.CRL.Create(c%p, chunkSize*bodyWords*8)
	}
	b.serial = apps.Reference(refKey{b.Bodies, b.Steps}, func() float64 { return serialRun(b.Bodies, b.Steps) })
}

// refKey keys Barnes-Hut's shared serial reference.
type refKey struct{ bodies, steps int }

// Body implements apps.App.
func (b *Barnes) Body(env *apps.Env, rank int) {
	nd := env.CRL.Node(rank)
	ep := env.Fab.Endpoint(rank)
	co := env.Coll.Comm(rank)
	p := env.Procs()
	n := b.Bodies
	nc := chunks(n)

	regs := make([]*crl.Region, nc)
	for c := 0; c < nc; c++ {
		regs[c] = nd.Map(b.rids[c])
	}
	chunkRange := func(c int) (int, int) {
		lo := c * chunkSize
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	// Initialize owned chunks.
	init := initBodies(n)
	for c := rank; c < nc; c += p {
		lo, hi := chunkRange(c)
		regs[c].StartWrite()
		v := regs[c].F64(0, chunkSize*bodyWords)
		for i := lo; i < hi; i++ {
			for d := 0; d < bodyWords; d++ {
				v.Set((i-lo)*bodyWords+d, init[i*bodyWords+d])
			}
		}
		regs[c].EndWrite()
	}
	co.Barrier()

	env.MarkStart(rank)
	bd := make([]float64, n*bodyWords)
	prev := append([]float64(nil), init...)
	next := make([]float64, n*bodyWords)
	for s := 0; s < b.Steps; s++ {
		// Gather all bodies through CRL.
		for c := 0; c < nc; c++ {
			lo, hi := chunkRange(c)
			regs[c].StartRead()
			v := regs[c].F64(0, chunkSize*bodyWords)
			for i := lo; i < hi; i++ {
				for d := 0; d < bodyWords; d++ {
					bd[i*bodyWords+d] = v.Get((i-lo)*bodyWords + d)
				}
			}
			regs[c].EndRead()
			ep.Compute(costmodel.MemRefs(bodyWords * (hi - lo)))
		}
		co.Barrier()
		// Build the tree (every rank builds it, as in CRL Barnes where the
		// tree is shared data read by everyone; we charge the build) and
		// advance my chunks. Both are host computation: they run before
		// either is charged, so no rank yields while its tree is live and
		// the ranks can take turns building in the run's one arena.
		root, work := buildTree(bd, n, &b.tree)
		inter := 0
		for c := rank; c < nc; c += p {
			lo, hi := chunkRange(c)
			inter += advance(bd, prev, next, root, lo, hi)
		}
		ep.Compute(costmodel.IntOps(30 * work))
		ep.Compute(costmodel.Flops(22 * inter))
		// Write back my chunks and roll prev forward.
		for c := rank; c < nc; c += p {
			lo, hi := chunkRange(c)
			regs[c].StartWrite()
			v := regs[c].F64(0, chunkSize*bodyWords)
			for i := lo; i < hi; i++ {
				for d := 0; d < bodyWords; d++ {
					v.Set((i-lo)*bodyWords+d, next[i*bodyWords+d])
				}
				for d := 0; d < bodyWords; d++ {
					prev[i*bodyWords+d] = bd[i*bodyWords+d]
				}
			}
			regs[c].EndWrite()
		}
		co.Barrier()
	}
	// Final checksum from a fresh global read.
	for c := 0; c < nc; c++ {
		lo, hi := chunkRange(c)
		regs[c].StartRead()
		v := regs[c].F64(0, chunkSize*bodyWords)
		for i := lo; i < hi; i++ {
			for d := 0; d < bodyWords; d++ {
				bd[i*bodyWords+d] = v.Get((i-lo)*bodyWords + d)
			}
		}
		regs[c].EndRead()
	}
	b.sums[rank] = checksum(bd, n)
	env.MarkStop(rank)
}

// Verify implements apps.App.
func (b *Barnes) Verify() error {
	for r, s := range b.sums {
		if math.Abs(s-b.serial) > 1e-9*math.Max(1, math.Abs(b.serial)) {
			return fmt.Errorf("rank %d checksum %.12g, serial %.12g", r, s, b.serial)
		}
	}
	return nil
}
