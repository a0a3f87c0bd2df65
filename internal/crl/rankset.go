package crl

import (
	"iter"
	"math/bits"
	"slices"
)

// rankSet is a set of ranks that iterates in ascending order. Ranks below
// 64 — every configuration in the paper — live in a bitmask; larger ranks
// spill to a sorted slice, the split memory.Segment's ACL uses. The
// directory's copyset is one: invalidations must go out in rank order,
// because the send order shapes the event schedule.
type rankSet struct {
	low   uint64
	spill []int // ascending, every element >= 64
}

func (s *rankSet) add(r int) {
	if r < 64 {
		s.low |= 1 << r
		return
	}
	i, found := slices.BinarySearch(s.spill, r)
	if !found {
		s.spill = slices.Insert(s.spill, i, r)
	}
}

func (s *rankSet) has(r int) bool {
	if r < 64 {
		return s.low&(1<<r) != 0
	}
	_, found := slices.BinarySearch(s.spill, r)
	return found
}

func (s *rankSet) len() int { return bits.OnesCount64(s.low) + len(s.spill) }

// reset empties the set, keeping the spill's storage.
func (s *rankSet) reset() {
	s.low = 0
	s.spill = s.spill[:0]
}

// all yields the members in ascending order.
func (s *rankSet) all() iter.Seq[int] {
	return func(yield func(int) bool) {
		for low := s.low; low != 0; low &= low - 1 {
			if !yield(bits.TrailingZeros64(low)) {
				return
			}
		}
		for _, r := range s.spill {
			if !yield(r) {
				return
			}
		}
	}
}
