// Package mm reimplements MM, the paper's Split-C blocked matrix multiply
// (Table 5: 256x256 doubles, 8x8 blocks). Blocks are spread cyclically;
// each processor computes the C blocks it owns, pulling the needed A and B
// blocks with split-phase bulk gets — a bandwidth-plus-latency workload.
package mm

import (
	"fmt"
	"math"

	"mproxy/internal/apps"
	"mproxy/internal/costmodel"
	"mproxy/internal/splitc"
)

// MM is one run of the program.
type MM struct {
	N int // matrix dimension
	B int // block dimension

	c0     []float64 // row 0 of C gathered at rank 0
	serial []float64 // reference row 0
}

// New returns an MM instance (n must be a multiple of b).
func New(n, b int) *MM {
	if n%b != 0 {
		panic("mm: n must be a multiple of b")
	}
	return &MM{N: n, B: b}
}

// Name implements apps.App.
func (m *MM) Name() string { return "MM" }

func aElem(i, j int) float64 { return math.Sin(float64(i*31 + j*17)) }
func bElem(i, j int) float64 { return math.Cos(float64(i*13 + j*29)) }

// Setup implements apps.App.
func (m *MM) Setup(env *apps.Env) {
	m.serial = apps.Reference(refKey{m.N}, func() []float64 { return serialRow0(m.N) })
}

// refKey keys MM's shared serial reference (read-only: Verify only
// compares against it).
type refKey struct{ n int }

// serialRow0 computes the reference: row 0 of C = A*B.
func serialRow0(n int) []float64 {
	row := make([]float64, n)
	for j := 0; j < n; j++ {
		s := 0.0
		for k := 0; k < n; k++ {
			s += aElem(0, k) * bElem(k, j)
		}
		row[j] = s
	}
	return row
}

// Body implements apps.App.
func (m *MM) Body(env *apps.Env, rank int) {
	c := env.SC.Ctx(rank)
	p := c.Procs()
	nb := m.N / m.B
	blockBytes := m.B * m.B * 8
	nBlocks := nb * nb

	// Per-rank slabs for the cyclically owned blocks of A, B and C, plus
	// two scratch blocks for remote operands.
	perRank := (nBlocks + p - 1) / p
	aBase := c.AllAlloc(perRank * blockBytes)
	bBase := c.AllAlloc(perRank * blockBytes)
	cBase := c.AllAlloc(perRank * blockBytes)
	sA := c.AllAlloc(blockBytes)
	sB := c.AllAlloc(blockBytes)
	gatherBase := c.AllAlloc(m.N * 8) // rank 0 collects row 0 of C

	owner := func(bi, bj int) (int, int) {
		lin := bi*nb + bj
		return lin % p, (lin / p) * blockBytes
	}

	// Initialize owned blocks of A and B.
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			o, off := owner(bi, bj)
			if o != rank {
				continue
			}
			av := c.LocalF64(aBase+off, m.B*m.B)
			bv := c.LocalF64(bBase+off, m.B*m.B)
			for x := 0; x < m.B; x++ {
				for y := 0; y < m.B; y++ {
					av.Set(x*m.B+y, aElem(bi*m.B+x, bj*m.B+y))
					bv.Set(x*m.B+y, bElem(bi*m.B+x, bj*m.B+y))
				}
			}
		}
	}
	c.Barrier()
	env.MarkStart(rank)

	acc := make([]float64, m.B*m.B)
	// Operand scratch: a block's values are consumed within one bk step.
	aBuf := make([]float64, m.B*m.B)
	bBuf := make([]float64, m.B*m.B)
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			o, cOff := owner(bi, bj)
			if o != rank {
				continue
			}
			for i := range acc {
				acc[i] = 0
			}
			for bk := 0; bk < nb; bk++ {
				// Fetch A(bi,bk) and B(bk,bj).
				ao, aOff := owner(bi, bk)
				bo, bOff := owner(bk, bj)
				var av, bv []float64
				if ao == rank {
					av = c.LocalF64(aBase+aOff, m.B*m.B).LoadInto(aBuf)
					c.Endpoint().Compute(costmodel.MemRefs(m.B * m.B / 8))
				} else {
					c.GetBulk(sA, splitc.GPtr{Proc: ao, Off: aBase + aOff}, blockBytes)
				}
				if bo == rank {
					bv = c.LocalF64(bBase+bOff, m.B*m.B).LoadInto(bBuf)
					c.Endpoint().Compute(costmodel.MemRefs(m.B * m.B / 8))
				} else {
					c.GetBulk(sB, splitc.GPtr{Proc: bo, Off: bBase + bOff}, blockBytes)
				}
				c.Sync()
				if av == nil {
					av = c.LocalF64(sA, m.B*m.B).LoadInto(aBuf)
				}
				if bv == nil {
					bv = c.LocalF64(sB, m.B*m.B).LoadInto(bBuf)
				}
				// acc += av * bv (b^3 multiply-adds).
				for x := 0; x < m.B; x++ {
					for k := 0; k < m.B; k++ {
						a := av[x*m.B+k]
						for y := 0; y < m.B; y++ {
							acc[x*m.B+y] += a * bv[k*m.B+y]
						}
					}
				}
				c.Endpoint().Compute(costmodel.Flops(2 * m.B * m.B * m.B))
			}
			c.LocalF64(cBase+cOff, m.B*m.B).Store(acc)
		}
	}
	c.Barrier()

	// Gather row 0 of C at rank 0: owners of the top block row store their
	// pieces.
	for bj := 0; bj < nb; bj++ {
		o, cOff := owner(0, bj)
		if o != rank {
			continue
		}
		// Row 0 of this block is its first m.B doubles.
		c.StoreBulk(cBase+cOff, splitc.GPtr{Proc: 0, Off: gatherBase + bj*m.B*8}, m.B*8)
	}
	c.AllStoreSync()
	if rank == 0 {
		m.c0 = c.LocalF64(gatherBase, m.N).Load()
	}
	env.MarkStop(rank)
}

// Verify implements apps.App.
func (m *MM) Verify() error {
	if len(m.c0) != m.N {
		return fmt.Errorf("row 0 not gathered")
	}
	for j := range m.serial {
		if math.Abs(m.c0[j]-m.serial[j]) > 1e-9*math.Max(1, math.Abs(m.serial[j])) {
			return fmt.Errorf("C[0][%d] = %.12g, want %.12g", j, m.c0[j], m.serial[j])
		}
	}
	return nil
}
