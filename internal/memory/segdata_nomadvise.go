//go:build unix && !linux

package memory

// dropPages is a no-op where package syscall offers no madvise: the
// pages stay resident until the finalizer unmaps the segment.
func dropPages(*Segment) {}
