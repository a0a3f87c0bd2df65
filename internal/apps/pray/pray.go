// Package pray reimplements P-Ray, the paper's Split-C ray tracer
// (Table 5: 512x512 image, 8 objects). Rows are handed out by a master
// through small am_request/am_reply messages; with long render times per
// row, messages are small and infrequent, which is why P-Ray is largely
// unaffected by the choice of communication architecture (Section 5.3).
package pray

import (
	"fmt"
	"math"

	"mproxy/internal/am"
	"mproxy/internal/apps"
	"mproxy/internal/coll"
	"mproxy/internal/costmodel"
)

// rowChunk is the number of image rows handed out per work request.
const rowChunk = 4

// sphere is one scene object.
type sphere struct {
	cx, cy, cz, r float64
	shade         float64
}

// scene returns the 8-object scene.
func scene() []sphere {
	out := make([]sphere, 8)
	for i := range out {
		a := float64(i) * math.Pi / 4
		out[i] = sphere{
			cx: 2.5 * math.Cos(a), cy: 2.5 * math.Sin(a), cz: 8 + float64(i%3),
			r: 0.9 + 0.1*float64(i%4), shade: 0.3 + 0.1*float64(i),
		}
	}
	return out
}

// tracePixel intersects the ray through pixel (x,y) with the scene.
func tracePixel(objs []sphere, w, h, x, y int) float64 {
	// Camera at origin, image plane at z=1.
	dx := (float64(x)/float64(w) - 0.5) * 1.2
	dy := (float64(y)/float64(h) - 0.5) * 1.2
	dz := 1.0
	n := math.Sqrt(dx*dx + dy*dy + dz*dz)
	dx, dy, dz = dx/n, dy/n, dz/n

	best := math.Inf(1)
	val := 0.05 // background
	for _, s := range objs {
		// |o + t d - c|^2 = r^2 with o = 0.
		b := dx*s.cx + dy*s.cy + dz*s.cz
		c := s.cx*s.cx + s.cy*s.cy + s.cz*s.cz - s.r*s.r
		disc := b*b - c
		if disc < 0 {
			continue
		}
		t := b - math.Sqrt(disc)
		if t > 1e-6 && t < best {
			best = t
			// Lambert shading against a fixed light direction.
			px, py, pz := t*dx, t*dy, t*dz
			nx, ny, nz := (px-s.cx)/s.r, (py-s.cy)/s.r, (pz-s.cz)/s.r
			lambert := nx*0.57 + ny*0.57 - nz*0.57
			if lambert < 0 {
				lambert = 0
			}
			val = s.shade * (0.2 + 0.8*lambert)
		}
	}
	return val
}

// renderRow computes the checksum contribution of one row.
func renderRow(objs []sphere, w, h, y int) float64 {
	sum := 0.0
	for x := 0; x < w; x++ {
		sum += tracePixel(objs, w, h, x, y) * float64(1+(x+y)%7)
	}
	return sum
}

// PRay is one run of the program.
type PRay struct {
	W, H int

	hAsk, hGrant int
	nextRow      int
	granted      []int // per-rank last granted row (-1 = done, -2 = waiting)
	sums         []float64
	serial       float64
}

// New returns a P-Ray instance.
func New(w, h int) *PRay { return &PRay{W: w, H: h} }

// Name implements apps.App.
func (p *PRay) Name() string { return "P-Ray" }

// refKey keys P-Ray's shared serial reference.
type refKey struct{ w, h int }

// serialRender computes the reference: the checksum of every row of a
// w x h render.
func serialRender(w, h int) float64 {
	objs := scene()
	sum := 0.0
	for y := 0; y < h; y++ {
		sum += renderRow(objs, w, h, y)
	}
	return sum
}

// Setup implements apps.App.
func (p *PRay) Setup(env *apps.Env) {
	n := env.Procs()
	p.granted = make([]int, n)
	p.sums = make([]float64, n)
	p.serial = apps.Reference(refKey{p.W, p.H}, func() float64 { return serialRender(p.W, p.H) })
	p.hGrant = env.AM.Register(func(port *am.Port, src int, args []int64, _ []byte) {
		p.granted[port.Rank()] = int(args[0])
	})
	p.hAsk = env.AM.Register(func(port *am.Port, src int, args []int64, _ []byte) {
		// Hand out chunks of rows; with a long render time per chunk the
		// messages stay small and infrequent, the property Section 5.3
		// credits for P-Ray's insensitivity to the design points.
		row := -1
		if p.nextRow < p.H {
			row = p.nextRow
			p.nextRow += rowChunk
		}
		port.Reply(src, p.hGrant, int64(row))
	})
}

// Body implements apps.App.
func (p *PRay) Body(env *apps.Env, rank int) {
	port := env.AM.Port(rank)
	ep := env.Fab.Endpoint(rank)
	objs := scene()
	env.MarkStart(rank)
	sum := 0.0
	for {
		p.granted[rank] = -2
		port.Request(0, p.hAsk)
		port.WaitUntil(func() bool { return p.granted[rank] != -2 })
		row := p.granted[rank]
		if row < 0 {
			break
		}
		for y := row; y < row+rowChunk && y < p.H; y++ {
			sum += renderRow(objs, p.W, p.H, y)
			// ~200 flops per pixel (intersections, shadow ray, shading).
			ep.Compute(costmodel.Flops(200 * p.W))
		}
	}
	total := env.Coll.Comm(rank).AllReduce(sum, coll.Sum)
	p.sums[rank] = total
	env.MarkStop(rank)
}

// Verify implements apps.App.
func (p *PRay) Verify() error {
	for r, s := range p.sums {
		if math.Abs(s-p.serial) > 1e-9*math.Max(1, math.Abs(p.serial)) {
			return fmt.Errorf("rank %d checksum %.12g, serial %.12g", r, s, p.serial)
		}
	}
	return nil
}
