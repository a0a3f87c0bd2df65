package comm

import (
	"testing"
	"unsafe"
)

// TestSpanIDCostsNoBytes pins the request and packet sizes: the span ID
// rides in the word the narrowed kind fields leave free, so neither
// record grows. A request is copied into every command control block and
// agent frame, so a byte here is paid per block and per agent.
func TestSpanIDCostsNoBytes(t *testing.T) {
	if got := unsafe.Sizeof(request{}); got > 136 {
		t.Errorf("request is %d bytes, want <= 136", got)
	}
	if got := unsafe.Sizeof(packet{}); got > 184 {
		t.Errorf("packet is %d bytes, want <= 184", got)
	}
}

// TestCommandQueueEntryHoldsAPointer pins a command-queue slot at 16
// bytes: the full/empty flag and a pointer to the pooled command control
// block, never the request itself.
func TestCommandQueueEntryHoldsAPointer(t *testing.T) {
	var ep Endpoint
	if got := ep.cmdq.EntrySize(); got > 16 {
		t.Errorf("command-queue entry is %d bytes, want <= 16", got)
	}
}
