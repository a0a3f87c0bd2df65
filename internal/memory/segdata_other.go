//go:build !unix

package memory

// newSegment allocates every segment on the Go heap where anonymous
// mappings are not available.
func newSegment(id ASID, owner, size int) *Segment {
	return &Segment{ID: id, Owner: owner, Data: make([]byte, size)}
}

// Release is a no-op: every segment lives on the Go heap, which the
// collector reclaims with the registry.
func (r *Registry) Release() {}
