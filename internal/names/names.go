// Package names builds a cluster's component names at the cost of one
// buffer and one string. A constructor appends every name it needs to a
// Builder with strconv-style appends, marks the end of each, and slices
// all of them out of the single string Names returns. The strings are
// byte-identical to what fmt.Sprintf would have produced, but a
// 1,024-node cluster formats its thousands of names with four
// allocations instead of two or three per name.
//
// Every name shares the one string's memory, so keeping any of them keeps
// the whole arena alive. Anything that stores a component name past the
// run of the cluster that made it (metrics collectors, span and timeline
// recorders) stores strings.Clone of it instead.
package names

import (
	"strconv"
	"unsafe"
)

// Builder accumulates names. The zero value is ready to use.
type Builder struct {
	buf  []byte
	ends []int32
}

// Grow sizes an empty builder for n names of about size bytes each; it
// does nothing once a name has been added.
func (b *Builder) Grow(n, size int) {
	if b.buf == nil {
		b.buf = make([]byte, 0, n*size)
		b.ends = make([]int32, 0, n)
	}
}

// Str appends s to the name being built.
func (b *Builder) Str(s string) *Builder {
	b.buf = append(b.buf, s...)
	return b
}

// Int appends the decimal form of v to the name being built.
func (b *Builder) Int(v int) *Builder {
	b.buf = strconv.AppendInt(b.buf, int64(v), 10)
	return b
}

// Last appends a copy of the most recently ended name.
func (b *Builder) Last() *Builder {
	start := int32(0)
	if n := len(b.ends); n > 1 {
		start = b.ends[n-2]
	}
	b.buf = append(b.buf, b.buf[start:b.ends[len(b.ends)-1]]...)
	return b
}

// End finishes the name being built.
func (b *Builder) End() { b.ends = append(b.ends, int32(len(b.buf))) }

// Names returns every ended name in order, all slices of one string, and
// resets the builder. The string is the builder's buffer itself, which
// nothing writes to again.
func (b *Builder) Names() []string {
	all := unsafe.String(unsafe.SliceData(b.buf), len(b.buf))
	out := make([]string, len(b.ends))
	start := int32(0)
	for i, end := range b.ends {
		out[i] = all[start:end]
		start = end
	}
	*b = Builder{}
	return out
}
