package lp

// rowSet is a bitset over row indices that the per-pivot searches use as a
// candidate list: the Markowitz search's rows that might hold a zero-count
// pivot (factor.go) and the dual restore's rows whose basic value might
// violate a bound (dual.go). A member is only a candidate; each search walks
// the words from lo in index order, checks each member exactly and clears
// it when the check fails. lo is a low-water word index: no word below it
// holds a member, and a walk advances it past the words it leaves empty, so
// the cleared prefix an elimination order leaves behind is not rescanned.
// The state is m/64 words.
type rowSet struct {
	w  []uint64
	lo int
}

// fill sizes the set for m rows and makes every row a member.
func (s *rowSet) fill(m int) {
	nw := (m + 63) >> 6
	if cap(s.w) < nw {
		s.w = make([]uint64, nw)
	}
	s.w = s.w[:nw]
	for k := range s.w {
		s.w[k] = ^uint64(0)
	}
	if r := m & 63; r != 0 {
		s.w[nw-1] = 1<<uint(r) - 1
	}
	s.lo = 0
}

// add makes row i a member.
func (s *rowSet) add(i int) {
	k := i >> 6
	s.w[k] |= 1 << uint(i&63)
	if k < s.lo {
		s.lo = k
	}
}
