package comm

import (
	"testing"
	"unsafe"
)

// TestSpanIDCostsNoBytes pins the request and packet sizes: the span ID
// rides in the word the narrowed kind fields leave free, so neither
// record grows. A request is copied into every command-queue slot and
// agent frame, so a byte here is paid per slot.
func TestSpanIDCostsNoBytes(t *testing.T) {
	if got := unsafe.Sizeof(request{}); got > 136 {
		t.Errorf("request is %d bytes, want <= 136", got)
	}
	if got := unsafe.Sizeof(packet{}); got > 184 {
		t.Errorf("packet is %d bytes, want <= 184", got)
	}
}
