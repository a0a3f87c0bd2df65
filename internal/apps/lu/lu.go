// Package lu reimplements LU, the paper's CRL blocked dense LU
// factorization (Table 5: 500x500 doubles in 10x10 blocks). Each matrix
// block is one CRL region, owned cyclically; each elimination step factors
// the diagonal block, updates the perimeter, and updates the interior —
// with all sharing mediated by the region coherence protocol, which is why
// most of LU's messages are small protocol traffic (Section 5.3).
package lu

import (
	"fmt"
	"math"

	"mproxy/internal/apps"
	"mproxy/internal/costmodel"
	"mproxy/internal/crl"
)

// LU is one run of the program.
type LU struct {
	N int // matrix dimension
	B int // block dimension

	rids   []crl.RID
	result []float64 // final factored matrix gathered at rank 0
	serial []float64
}

// New returns an LU instance (n must be a multiple of b).
func New(n, b int) *LU {
	if n%b != 0 {
		panic("lu: n must be a multiple of b")
	}
	return &LU{N: n, B: b}
}

// Name implements apps.App.
func (l *LU) Name() string { return "LU" }

// aElem defines the (diagonally dominant, pivot-free) input matrix.
func aElem(i, j, n int) float64 {
	if i == j {
		return float64(n) + 2
	}
	return math.Sin(float64(i*37+j*23)) * 0.9
}

// Block kernels; every implementation detail is shared between the serial
// reference and the parallel program so results match bit for bit.

// factorDiag performs in-place Doolittle LU on a b x b block (unit lower).
func factorDiag(d []float64, b int) {
	for c := 0; c < b; c++ {
		for r := c + 1; r < b; r++ {
			d[r*b+c] /= d[c*b+c]
			lrc := d[r*b+c]
			for j := c + 1; j < b; j++ {
				d[r*b+j] -= lrc * d[c*b+j]
			}
		}
	}
}

// colUpdate computes A(i,k) <- A(i,k) * U(k,k)^{-1} (right solve with the
// upper triangle of the factored diagonal block).
func colUpdate(a, d []float64, b int) {
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			s := a[r*b+c]
			for m := 0; m < c; m++ {
				s -= a[r*b+m] * d[m*b+c]
			}
			a[r*b+c] = s / d[c*b+c]
		}
	}
}

// rowUpdate computes A(k,j) <- L(k,k)^{-1} A(k,j) (left solve with the
// unit-lower triangle).
func rowUpdate(a, d []float64, b int) {
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			s := a[r*b+c]
			for m := 0; m < r; m++ {
				s -= d[r*b+m] * a[m*b+c]
			}
			a[r*b+c] = s
		}
	}
}

// gemmSub computes C -= A * B for b x b blocks.
func gemmSub(cb, a, bb []float64, b int) {
	for r := 0; r < b; r++ {
		for m := 0; m < b; m++ {
			arm := a[r*b+m]
			for c := 0; c < b; c++ {
				cb[r*b+c] -= arm * bb[m*b+c]
			}
		}
	}
}

// serialLU factors the blocked matrix in place and returns it.
func serialLU(n, b int) []float64 {
	nb := n / b
	blocks := make([][]float64, nb*nb)
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			blk := make([]float64, b*b)
			for x := 0; x < b; x++ {
				for y := 0; y < b; y++ {
					blk[x*b+y] = aElem(bi*b+x, bj*b+y, n)
				}
			}
			blocks[bi*nb+bj] = blk
		}
	}
	for k := 0; k < nb; k++ {
		factorDiag(blocks[k*nb+k], b)
		for i := k + 1; i < nb; i++ {
			colUpdate(blocks[i*nb+k], blocks[k*nb+k], b)
			rowUpdate(blocks[k*nb+i], blocks[k*nb+k], b)
		}
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				gemmSub(blocks[i*nb+j], blocks[i*nb+k], blocks[k*nb+j], b)
			}
		}
	}
	out := make([]float64, 0, n*n)
	for _, blk := range blocks {
		out = append(out, blk...)
	}
	return out
}

// Setup implements apps.App.
func (l *LU) Setup(env *apps.Env) {
	nb := l.N / l.B
	p := env.Procs()
	l.rids = make([]crl.RID, nb*nb)
	for i := range l.rids {
		l.rids[i] = env.CRL.Create(i%p, l.B*l.B*8)
	}
	l.serial = apps.Reference(refKey{l.N, l.B}, func() []float64 { return serialLU(l.N, l.B) })
}

// refKey keys LU's shared serial reference (read-only: Verify only
// compares against it).
type refKey struct{ n, b int }

// Body implements apps.App.
func (l *LU) Body(env *apps.Env, rank int) {
	nd := env.CRL.Node(rank)
	ep := env.Fab.Endpoint(rank)
	co := env.Coll.Comm(rank)
	p := env.Procs()
	b := l.B
	nb := l.N / b

	regs := make([]*crl.Region, nb*nb)
	for i := range regs {
		regs[i] = nd.Map(l.rids[i])
	}
	mine := func(bi, bj int) bool { return (bi*nb+bj)%p == rank }

	// Initialize owned blocks.
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			if !mine(bi, bj) {
				continue
			}
			rg := regs[bi*nb+bj]
			rg.StartWrite()
			v := rg.F64(0, b*b)
			for x := 0; x < b; x++ {
				for y := 0; y < b; y++ {
					v.Set(x*b+y, aElem(bi*b+x, bj*b+y, l.N))
				}
			}
			rg.EndWrite()
		}
	}
	co.Barrier()
	env.MarkStart(rank)

	// Block scratch, reused every step: two operand blocks read through
	// CRL and the block being updated in place.
	rBuf1 := make([]float64, b*b)
	rBuf2 := make([]float64, b*b)
	wBuf := make([]float64, b*b)

	// readBlock fetches a block's values through CRL into dst.
	readBlock := func(bi, bj int, dst []float64) []float64 {
		rg := regs[bi*nb+bj]
		rg.StartRead()
		vals := rg.F64(0, b*b).LoadInto(dst)
		rg.EndRead()
		ep.Compute(costmodel.MemRefs(b * b / 4))
		return vals
	}

	for k := 0; k < nb; k++ {
		// Factor the diagonal block.
		if mine(k, k) {
			rg := regs[k*nb+k]
			rg.StartWrite()
			d := rg.F64(0, b*b).LoadInto(wBuf)
			factorDiag(d, b)
			rg.F64(0, b*b).Store(d)
			rg.EndWrite()
			ep.Compute(costmodel.Flops(2 * b * b * b / 3))
		}
		co.Barrier()
		// Perimeter updates.
		for i := k + 1; i < nb; i++ {
			if mine(i, k) {
				d := readBlock(k, k, rBuf1)
				rg := regs[i*nb+k]
				rg.StartWrite()
				a := rg.F64(0, b*b).LoadInto(wBuf)
				colUpdate(a, d, b)
				rg.F64(0, b*b).Store(a)
				rg.EndWrite()
				ep.Compute(costmodel.Flops(b * b * b))
			}
			if mine(k, i) {
				d := readBlock(k, k, rBuf1)
				rg := regs[k*nb+i]
				rg.StartWrite()
				a := rg.F64(0, b*b).LoadInto(wBuf)
				rowUpdate(a, d, b)
				rg.F64(0, b*b).Store(a)
				rg.EndWrite()
				ep.Compute(costmodel.Flops(b * b * b))
			}
		}
		co.Barrier()
		// Interior updates.
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				if !mine(i, j) {
					continue
				}
				a := readBlock(i, k, rBuf1)
				bb := readBlock(k, j, rBuf2)
				rg := regs[i*nb+j]
				rg.StartWrite()
				cb := rg.F64(0, b*b).LoadInto(wBuf)
				gemmSub(cb, a, bb, b)
				rg.F64(0, b*b).Store(cb)
				rg.EndWrite()
				ep.Compute(costmodel.Flops(2 * b * b * b))
			}
		}
		co.Barrier()
	}

	// Gather the factored matrix at rank 0 (block-major, like the serial
	// reference).
	if rank == 0 {
		out := make([]float64, 0, l.N*l.N)
		for bi := 0; bi < nb; bi++ {
			for bj := 0; bj < nb; bj++ {
				out = append(out, readBlock(bi, bj, rBuf1)...)
			}
		}
		l.result = out
	}
	env.MarkStop(rank)
}

// Verify implements apps.App.
func (l *LU) Verify() error {
	if len(l.result) != l.N*l.N {
		return fmt.Errorf("result not gathered")
	}
	for i := range l.serial {
		if math.Abs(l.result[i]-l.serial[i]) > 1e-9*math.Max(1, math.Abs(l.serial[i])) {
			return fmt.Errorf("element %d = %.12g, want %.12g", i, l.result[i], l.serial[i])
		}
	}
	return nil
}
