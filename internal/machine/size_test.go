package machine

import (
	"testing"
	"unsafe"
)

// TestLinkSize pins a Link at 88 bytes (the 96-byte size class, down
// from 128): the fault plane and the cross-shard route, which only
// faulted and sharded runs set, live behind one pointer. A 1,024-node
// fat-tree has 5,120 links.
func TestLinkSize(t *testing.T) {
	if got := unsafe.Sizeof(Link{}); got > 88 {
		t.Errorf("Link is %d bytes, want <= 88", got)
	}
}
