//go:build unix

package memory

import (
	"fmt"
	"runtime"
	"testing"
)

const bigSeg = 8 << 20 // the default Split-C heap

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestKernelBackedSegmentReadsZero(t *testing.T) {
	r := newReg()
	s := r.NewSegment(0, bigSeg)
	if len(s.Data) != bigSeg || cap(s.Data) != bigSeg {
		t.Fatalf("len/cap = %d/%d, want %d", len(s.Data), cap(s.Data), bigSeg)
	}
	if !allZero(s.Data) {
		t.Fatal("fresh kernel-backed segment is not zero")
	}
	s.Data[bigSeg-1] = 0xff
	if s.Data[bigSeg-1] != 0xff || !allZero(s.Data[:bigSeg-1]) {
		t.Fatal("write to the last byte did not land exactly there")
	}
}

func TestKernelBackedSegmentBounds(t *testing.T) {
	r := newReg()
	s := r.NewSegment(0, bigSeg)
	if _, err := r.CheckAccess(0, s.Addr(bigSeg-8), 8, "GET"); err != nil {
		t.Fatalf("last word faulted: %v", err)
	}
	_, err := r.CheckAccess(0, s.Addr(bigSeg-7), 8, "GET")
	want := fmt.Sprintf("fault: rank 0 GET asid %d: out of bounds: [%d,%d) of %d",
		s.ID, bigSeg-7, bigSeg+1, bigSeg)
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
}

// allocated returns how many bytes of Go heap fn allocates.
func allocated(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

func TestSegmentHeapThreshold(t *testing.T) {
	r := newReg()
	var small, big *Segment
	if got := allocated(func() { small = r.NewSegment(0, kernelBackedMin-1) }); got < kernelBackedMin-1 {
		t.Fatalf("%d-byte segment allocated %d heap bytes; want it on the Go heap", kernelBackedMin-1, got)
	}
	if got := allocated(func() { big = r.NewSegment(0, kernelBackedMin) }); got >= kernelBackedMin {
		t.Fatalf("%d-byte segment allocated %d heap bytes; want it kernel-backed", kernelBackedMin, got)
	}
	if len(small.Data) != kernelBackedMin-1 || len(big.Data) != kernelBackedMin {
		t.Fatal("segment sizes changed")
	}
}

func TestKernelBackedSegmentOffHeap(t *testing.T) {
	r := newReg()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := r.NewSegment(0, bigSeg)
	runtime.ReadMemStats(&m1)
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("8 MiB segment grew HeapAlloc by %d bytes, want < 1 MiB", grew)
	}
	runtime.KeepAlive(s)
}

// TestCollectedSegmentsUnmapCleanly drops dirtied kernel-backed segments,
// lets their finalizers unmap them, and checks that segments mapped
// afterwards (likely at recycled addresses) start zeroed and stay private.
// It runs once with the dirty pages still resident when the finalizers
// unmap them (a registry whose run never calls Release: serving workloads,
// a failed Verify) and once with the pages released first, as apps.Run
// does after a verified run.
func TestCollectedSegmentsUnmapCleanly(t *testing.T) {
	for _, release := range []bool{false, true} {
		t.Run(fmt.Sprintf("release=%v", release), func(t *testing.T) {
			collectedSegmentsUnmapCleanly(t, release)
		})
	}
}

func collectedSegmentsUnmapCleanly(t *testing.T, release bool) {
	const n, size = 64, 256 << 10
	func() {
		r := newReg()
		for i := 0; i < n; i++ {
			s := r.NewSegment(i, size)
			for off := 0; off < size; off += 4096 {
				s.Data[off] = byte(i + 1)
			}
		}
		if release {
			r.Release()
		}
	}()
	runtime.GC()
	runtime.GC()

	r := newReg()
	segs := make([]*Segment, n)
	for i := range segs {
		segs[i] = r.NewSegment(i, size)
		if !allZero(segs[i].Data) {
			t.Fatalf("fresh segment %d carries stale bytes", i)
		}
	}
	for i, s := range segs {
		for off := 0; off < size; off += 4096 {
			s.Data[off] = byte(i + 1)
		}
	}
	for i, s := range segs {
		for off := 0; off < size; off += 4096 {
			if s.Data[off] != byte(i+1) || !allZero(s.Data[off+1:off+4096]) {
				t.Fatalf("segment %d page %d shows another segment's writes", i, off/4096)
			}
		}
	}
}

// TestReleaseDropsKernelPages dirties a kernel-backed and a heap-backed
// segment, releases the registry twice, and checks that only the
// kernel-backed one lost its contents and neither changed size.
func TestReleaseDropsKernelPages(t *testing.T) {
	r := newReg()
	big := r.NewSegment(0, bigSeg)
	small := r.NewSegment(1, 4096)
	for off := 0; off < bigSeg; off += 4096 {
		big.Data[off] = 0xab
	}
	for i := range small.Data {
		small.Data[i] = byte(i)
	}
	r.Release()
	r.Release()
	if len(big.Data) != bigSeg || len(small.Data) != 4096 {
		t.Fatalf("len = %d/%d after Release, want %d/4096", len(big.Data), len(small.Data), bigSeg)
	}
	if runtime.GOOS == "linux" && !allZero(big.Data) {
		t.Error("released kernel-backed segment still holds its bytes")
	}
	for i, c := range small.Data {
		if c != byte(i) {
			t.Fatalf("heap-backed segment byte %d = %d after Release, want %d", i, c, byte(i))
		}
	}
	// The mapping stays usable.
	big.Data[bigSeg-1] = 1
	if big.Data[bigSeg-1] != 1 {
		t.Error("released segment no longer takes writes")
	}
}
