package sim

import (
	"testing"
	"unsafe"
)

// TestTaskSize pins a Task at 64 bytes, the allocation size class it
// reached when it began carrying its start function (48 bytes before):
// every communication agent is one, and a 1,024-node cluster builds a
// thousand.
func TestTaskSize(t *testing.T) {
	if got := unsafe.Sizeof(Task{}); got > 64 {
		t.Errorf("Task is %d bytes, want <= 64", got)
	}
}
