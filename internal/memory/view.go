package memory

import (
	"encoding/binary"
	"math"
)

// Typed views let applications treat a segment's bytes as arrays of
// machine words, the way the paper's Split-C and CRL programs treat the
// regions they communicate through. All views use little-endian layout and
// 8-byte elements so element i of any view lives at byte offset base+8i —
// which is also what the RMA engines transfer.

// WordSize is the element size of all typed views.
const WordSize = 8

// F64 is a float64 view over a segment starting at byte offset base.
type F64 struct {
	seg  *Segment
	base int
	n    int
}

// Float64s returns an n-element float64 view at byte offset base of s.
func Float64s(s *Segment, base, n int) F64 {
	if base < 0 || base+n*WordSize > len(s.Data) {
		panic("memory: float64 view out of segment bounds")
	}
	return F64{s, base, n}
}

// Len returns the element count.
func (v F64) Len() int { return v.n }

// Addr returns the address of element i.
func (v F64) Addr(i int) Addr { return Addr{v.seg.ID, v.base + i*WordSize} }

// Get returns element i.
func (v F64) Get(i int) float64 {
	v.check(i)
	return math.Float64frombits(binary.LittleEndian.Uint64(v.seg.Data[v.base+i*WordSize:]))
}

// Set stores x into element i.
func (v F64) Set(i int, x float64) {
	v.check(i)
	binary.LittleEndian.PutUint64(v.seg.Data[v.base+i*WordSize:], math.Float64bits(x))
}

// Slice returns a view of elements [lo, hi).
func (v F64) Slice(lo, hi int) F64 {
	if lo < 0 || hi < lo || hi > v.n {
		panic("memory: bad slice bounds")
	}
	return F64{v.seg, v.base + lo*WordSize, hi - lo}
}

// Copy copies min(len) elements from src into v (local memory-to-memory
// copy; remote moves go through the RMA engines).
func (v F64) Copy(src F64) int {
	n := v.n
	if src.n < n {
		n = src.n
	}
	copy(v.seg.Data[v.base:v.base+n*WordSize], src.seg.Data[src.base:src.base+n*WordSize])
	return n
}

// Load copies the view into a plain Go slice.
func (v F64) Load() []float64 { return v.LoadInto(nil) }

// LoadInto copies the view into dst[:v.Len()], reallocating only when
// dst is too small, and returns the filled slice. Callers that reload a
// view every step keep one scratch slice instead of allocating a copy per
// load.
func (v F64) LoadInto(dst []float64) []float64 {
	if cap(dst) < v.n {
		dst = make([]float64, v.n)
	}
	dst = dst[:v.n]
	for i := range dst {
		dst[i] = v.Get(i)
	}
	return dst
}

// Store copies a plain Go slice into the view.
func (v F64) Store(xs []float64) {
	if len(xs) > v.n {
		panic("memory: store overflows view")
	}
	for i, x := range xs {
		v.Set(i, x)
	}
}

func (v F64) check(i int) {
	if i < 0 || i >= v.n {
		panic("memory: view index out of range")
	}
}

// I64 is an int64 view over a segment.
type I64 struct {
	seg  *Segment
	base int
	n    int
}

// Int64s returns an n-element int64 view at byte offset base of s.
func Int64s(s *Segment, base, n int) I64 {
	if base < 0 || base+n*WordSize > len(s.Data) {
		panic("memory: int64 view out of segment bounds")
	}
	return I64{s, base, n}
}

// Len returns the element count.
func (v I64) Len() int { return v.n }

// Addr returns the address of element i.
func (v I64) Addr(i int) Addr { return Addr{v.seg.ID, v.base + i*WordSize} }

// Get returns element i.
func (v I64) Get(i int) int64 {
	v.check(i)
	return int64(binary.LittleEndian.Uint64(v.seg.Data[v.base+i*WordSize:]))
}

// Set stores x into element i.
func (v I64) Set(i int, x int64) {
	v.check(i)
	binary.LittleEndian.PutUint64(v.seg.Data[v.base+i*WordSize:], uint64(x))
}

// Slice returns a view of elements [lo, hi).
func (v I64) Slice(lo, hi int) I64 {
	if lo < 0 || hi < lo || hi > v.n {
		panic("memory: bad slice bounds")
	}
	return I64{v.seg, v.base + lo*WordSize, hi - lo}
}

func (v I64) check(i int) {
	if i < 0 || i >= v.n {
		panic("memory: view index out of range")
	}
}

// PutF64 encodes a float64 into an 8-byte record (for queue payloads).
func PutF64(b []byte, x float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(x)) }

// GetF64 decodes a float64 from an 8-byte record.
func GetF64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// PutI64 encodes an int64 into an 8-byte record.
func PutI64(b []byte, x int64) { binary.LittleEndian.PutUint64(b, uint64(x)) }

// GetI64 decodes an int64 from an 8-byte record.
func GetI64(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }
