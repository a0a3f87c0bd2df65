package memory

import (
	"fmt"
	"syscall"
)

// dropPages discards a kernel-backed segment's pages; the next touch
// faults in a zero page.
func dropPages(s *Segment) {
	if err := syscall.Madvise(s.Data, syscall.MADV_DONTNEED); err != nil {
		panic(fmt.Errorf("memory: releasing segment %d: %w", s.ID, err))
	}
}
