// Package fft reimplements FFT, the paper's Split-C 1-D Fast Fourier
// Transform with bulk transfers to exchange data (Table 5: 1M points). It
// uses the four-step (transpose) method: local row FFTs, twiddle scaling, a
// bulk all-to-all transpose, and a second round of local FFTs — the classic
// bandwidth-bound FFT decomposition.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"

	"mproxy/internal/apps"
	"mproxy/internal/costmodel"
	"mproxy/internal/splitc"
)

// FFT is one run of the program: an N1 x N2 decomposition of N = N1*N2
// points. N1 and N2 must be powers of two and multiples of the processor
// count.
type FFT struct {
	N1, N2 int

	spot   map[int]complex128 // sampled output coefficients, by global k
	serial map[int]complex128
}

// New returns an FFT instance over n = n1*n2 points.
func New(n1, n2 int) *FFT { return &FFT{N1: n1, N2: n2} }

// Name implements apps.App.
func (f *FFT) Name() string { return "FFT" }

// input defines the (deterministic) signal.
func input(n int) complex128 {
	t := float64(n)
	return complex(math.Sin(0.01*t)+0.5*math.Cos(0.003*t), 0.25*math.Sin(0.007*t))
}

// fftInPlace computes an in-place iterative radix-2 FFT.
func fftInPlace(a []complex128) {
	n := len(a)
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
		m := n >> 1
		for ; j&m != 0; m >>= 1 {
			j &^= m
		}
		j |= m
	}
	for size := 2; size <= n; size <<= 1 {
		ang := -2 * math.Pi / float64(size)
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += size {
			w := complex(1, 0)
			for k := 0; k < size/2; k++ {
				u := a[i+k]
				v := a[i+k+size/2] * w
				a[i+k] = u + v
				a[i+k+size/2] = u - v
				w *= wl
			}
		}
	}
}

// Setup implements apps.App.
func (f *FFT) Setup(env *apps.Env) {
	f.spot = make(map[int]complex128)
	f.serial = apps.Reference(refKey{f.N1, f.N2}, func() map[int]complex128 { return spotDFT(f.N1, f.N2) })
}

// refKey keys FFT's shared serial reference (read-only: Body and Verify
// only read the map).
type refKey struct{ n1, n2 int }

// spotDFT computes the reference: a handful of spot coefficients of the
// n1*n2-point transform by direct DFT.
func spotDFT(n1, n2 int) map[int]complex128 {
	n := n1 * n2
	out := make(map[int]complex128)
	for _, k := range []int{0, 1, n2 + 3, n/2 + 7, n - 1} {
		k %= n
		var s complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(t) * float64(k) / float64(n)
			s += input(t) * cmplx.Rect(1, ang)
		}
		out[k] = s
	}
	return out
}

// Body implements apps.App.
func (f *FFT) Body(env *apps.Env, rank int) {
	c := env.SC.Ctx(rank)
	p := c.Procs()
	n := f.N1 * f.N2
	if f.N1%p != 0 || f.N2%p != 0 {
		panic("fft: N1 and N2 must be multiples of the processor count")
	}
	rows1 := f.N1 / p // my rows in phase 1 (indexed by n1)
	rows2 := f.N2 / p // my rows in phase 2 (indexed by k2)

	// Layout: phase-1 rows, transpose staging area (blocks by source),
	// phase-2 rows, and a pack buffer.
	yBase := c.AllAlloc(rows1 * f.N2 * 16)
	rBase := c.AllAlloc(rows2 * f.N1 * 16)
	zBase := c.AllAlloc(rows2 * f.N1 * 16)
	// One pack buffer per destination: a one-way store's source must stay
	// untouched until the data leaves (zero-copy transfer semantics).
	packBase := c.AllAlloc(p * rows1 * rows2 * 16)

	loadRow := func(base, row, width int) []complex128 {
		v := c.LocalF64(base+row*width*16, width*2)
		out := make([]complex128, width)
		for i := range out {
			out[i] = complex(v.Get(2*i), v.Get(2*i+1))
		}
		return out
	}
	storeRow := func(base, row, width int, data []complex128) {
		v := c.LocalF64(base+row*width*16, width*2)
		for i, x := range data {
			v.Set(2*i, real(x))
			v.Set(2*i+1, imag(x))
		}
	}

	// Initialize my rows: row r holds x[n1 + N1*n2] for n1 = rank*rows1+r.
	for r := 0; r < rows1; r++ {
		n1 := rank*rows1 + r
		row := make([]complex128, f.N2)
		for n2 := 0; n2 < f.N2; n2++ {
			row[n2] = input(n1 + f.N1*n2)
		}
		storeRow(yBase, r, f.N2, row)
	}
	c.Barrier()
	env.MarkStart(rank)

	// Step 1+2: FFT each row over n2, then scale by W_N^{n1*k2}.
	for r := 0; r < rows1; r++ {
		n1 := rank*rows1 + r
		row := loadRow(yBase, r, f.N2)
		fftInPlace(row)
		for k2 := range row {
			ang := -2 * math.Pi * float64(n1) * float64(k2) / float64(n)
			row[k2] *= cmplx.Rect(1, ang)
		}
		storeRow(yBase, r, f.N2, row)
		c.Endpoint().Compute(costmodel.Flops(5*f.N2*log2(f.N2) + 8*f.N2))
	}

	// Step 3: transpose. Send to each destination the (rows1 x rows2)
	// sub-block of my rows restricted to its k2 range, packed contiguous.
	blockBytes := rows1 * rows2 * 16
	for dst := 0; dst < p; dst++ {
		pack := c.LocalF64(packBase+dst*blockBytes, rows1*rows2*2)
		for r := 0; r < rows1; r++ {
			row := c.LocalF64(yBase+r*f.N2*16, f.N2*2)
			for j := 0; j < rows2; j++ {
				k2 := dst*rows2 + j
				pack.Set((r*rows2+j)*2, row.Get(2*k2))
				pack.Set((r*rows2+j)*2+1, row.Get(2*k2+1))
			}
		}
		c.Endpoint().Compute(costmodel.Copy(blockBytes))
		// Destination layout: staging block indexed by source rank.
		c.StoreBulk(packBase+dst*blockBytes, splitc.GPtr{Proc: dst, Off: rBase + rank*blockBytes}, blockBytes)
	}
	c.AllStoreSync()

	// Step 4: unpack into k2-major rows and FFT over n1. Staging block
	// from source s holds Y[n1 = s*rows1 + r][k2 = rank*rows2 + j] at
	// (r*rows2 + j).
	for j := 0; j < rows2; j++ {
		row := make([]complex128, f.N1)
		for s := 0; s < p; s++ {
			blk := c.LocalF64(rBase+s*rows1*rows2*16, rows1*rows2*2)
			for r := 0; r < rows1; r++ {
				row[s*rows1+r] = complex(blk.Get((r*rows2+j)*2), blk.Get((r*rows2+j)*2+1))
			}
		}
		fftInPlace(row)
		v := c.LocalF64(zBase+j*f.N1*16, f.N1*2)
		for i, x := range row {
			v.Set(2*i, real(x))
			v.Set(2*i+1, imag(x))
		}
		c.Endpoint().Compute(costmodel.Flops(5*f.N1*log2(f.N1)) + costmodel.Copy(f.N1*16))
	}
	c.Barrier()

	// Sample the spot coefficients: X[k2 + N2*k1] is element k1 of the
	// row owned for k2.
	for k := range f.serial {
		k2 := k % f.N2
		k1 := k / f.N2
		if k2/rows2 == rank {
			j := k2 % rows2
			v := c.LocalF64(zBase+j*f.N1*16, f.N1*2)
			f.spot[k] = complex(v.Get(2*k1), v.Get(2*k1+1))
		}
	}
	env.MarkStop(rank)
}

func log2(n int) int {
	k := 0
	for v := 1; v < n; v *= 2 {
		k++
	}
	return k
}

// Verify implements apps.App.
func (f *FFT) Verify() error {
	if len(f.spot) != len(f.serial) {
		return fmt.Errorf("sampled %d coefficients, want %d", len(f.spot), len(f.serial))
	}
	for k, want := range f.serial {
		got := f.spot[k]
		if cmplx.Abs(got-want) > 1e-6*(1+cmplx.Abs(want)) {
			return fmt.Errorf("X[%d] = %v, want %v", k, got, want)
		}
	}
	return nil
}
