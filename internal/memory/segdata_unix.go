//go:build unix

package memory

import (
	"fmt"
	"runtime"
	"syscall"
)

// newSegment backs segments of at least kernelBackedMin bytes with an
// anonymous private mapping instead of the Go heap. The kernel hands out
// zero pages on first touch, so an 8 MiB Split-C heap of which a run
// touches a few kilobytes costs a few resident pages — not 8 MiB of
// zeroing, resident memory and GC scanning. A finalizer on the *Segment
// unmaps the bytes, which is why no Data subslice may outlive its segment.
func newSegment(id ASID, owner, size int) *Segment {
	if !kernelBacked(size) {
		return &Segment{ID: id, Owner: owner, Data: make([]byte, size)}
	}
	data, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Errorf("memory: mapping a %d-byte segment: %w", size, err))
	}
	s := &Segment{ID: id, Owner: owner, Data: data}
	runtime.SetFinalizer(s, (*Segment).unmap)
	return s
}

// kernelBacked reports whether a segment of size bytes is an anonymous
// mapping rather than Go heap; newSegment and Release both decide by it.
func kernelBacked(size int) bool { return size >= kernelBackedMin }

func (s *Segment) unmap() {
	if err := syscall.Munmap(s.Data); err != nil {
		panic(fmt.Errorf("memory: unmapping segment %d: %w", s.ID, err))
	}
}

// Release hands the resident pages of every kernel-backed segment back to
// the kernel, for a registry whose run is over: the contents are gone
// (on Linux the pages read zero again), but each mapping stays in place
// at its full size until the segment's finalizer unmaps it. Heap-backed
// segments keep their contents. Calling it again is harmless.
func (r *Registry) Release() {
	for _, s := range r.segs[1:] {
		if kernelBacked(len(s.Data)) {
			dropPages(s)
		}
	}
}
