//go:build !unix

package memory

// newSegment allocates every segment on the Go heap where anonymous
// mappings are not available.
func newSegment(id ASID, owner, size int) *Segment {
	return &Segment{ID: id, Owner: owner, Data: make([]byte, size)}
}
