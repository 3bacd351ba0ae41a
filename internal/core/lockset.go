package core

// lockSetInline is how many entries a lock set keeps inside its Xact. A
// point transaction's Get takes a tuple lock on the heap row and a page
// lock on the index leaf it descended to, and counts each under the
// next-coarser target: two Gets are seven entries.
const lockSetInline = 8

// lockEntry is one target in a transaction's lock set: whether the
// transaction holds a SIREAD lock on it, and — for a page or relation
// target — its promotion counter (§5.2.1): how many tuple locks the
// transaction acquired on the page, or how many page locks on the
// relation. A counter counts acquisitions, not current holdings:
// dropping a tuple lock (§7.3) does not decrement its page's count. An
// entry that is neither held nor counted is removed.
type lockEntry struct {
	t    Target
	n    int32
	held bool
}

// lockSet is a transaction's SIREAD lock set and its promotion counters
// in one structure. Its first lockSetInline entries live in the Xact, so
// a point transaction's locks allocate nothing; past that the entries
// move to a slice and a map indexes them, so a transaction holding
// thousands of locks (a scan, a DBT-2 stock-level) still probes in O(1).
// Guarded by the owning Xact's lockMu.
type lockSet struct {
	ents   []lockEntry
	index  map[Target]int32 // position in ents; nil while ents is inline
	inline [lockSetInline]lockEntry
}

// sameTarget is Target equality, cheapest fields first.
func sameTarget(a, b *Target) bool {
	return a.Page == b.Page && a.Level == b.Level && a.Key == b.Key && a.Rel == b.Rel
}

// find returns t's position in s, or -1.
func (s *lockSet) find(t Target) int {
	if s.index != nil {
		if i, ok := s.index[t]; ok {
			return int(i)
		}
		return -1
	}
	for i := range s.ents {
		if sameTarget(&s.ents[i].t, &t) {
			return i
		}
	}
	return -1
}

// holds reports whether the transaction holds a SIREAD lock on t.
func (s *lockSet) holds(t Target) bool {
	i := s.find(t)
	return i >= 0 && s.ents[i].held
}

// count returns t's promotion counter.
func (s *lockSet) count(t Target) int32 {
	if i := s.find(t); i >= 0 {
		return s.ents[i].n
	}
	return 0
}

// entry returns t's entry, adding an empty one if there is none. The
// pointer is valid until the next addition or removal.
func (s *lockSet) entry(t Target) *lockEntry {
	if i := s.find(t); i >= 0 {
		return &s.ents[i]
	}
	if s.ents == nil {
		s.ents = s.inline[:0]
	}
	if len(s.ents) == cap(s.ents) && s.index == nil {
		// Leaving the inline entries: index them, and drop the inline
		// copies so they hold no strings alive.
		ents := make([]lockEntry, len(s.ents), 4*lockSetInline)
		copy(ents, s.ents)
		clear(s.inline[:])
		s.ents = ents
		s.index = make(map[Target]int32, 4*lockSetInline)
		for i := range ents {
			s.index[ents[i].t] = int32(i)
		}
	}
	s.ents = append(s.ents, lockEntry{t: t})
	if s.index != nil {
		s.index[t] = int32(len(s.ents) - 1)
	}
	return &s.ents[len(s.ents)-1]
}

// hold marks t held, reporting false if it already was.
func (s *lockSet) hold(t Target) bool {
	e := s.entry(t)
	if e.held {
		return false
	}
	e.held = true
	return true
}

// unhold clears t's held mark, reporting whether it was set.
func (s *lockSet) unhold(t Target) bool {
	i := s.find(t)
	if i < 0 || !s.ents[i].held {
		return false
	}
	s.ents[i].held = false
	if s.ents[i].n == 0 {
		s.removeAt(i)
	}
	return true
}

// bump adds d to t's promotion counter and returns the new value.
func (s *lockSet) bump(t Target, d int32) int32 {
	e := s.entry(t)
	e.n += d
	return e.n
}

// clearCount zeroes t's promotion counter. The entry is left in place
// for compact to remove, so callers may run it while walking s.ents.
func (s *lockSet) clearCount(t Target) {
	if i := s.find(t); i >= 0 {
		s.ents[i].n = 0
	}
}

// removeAt removes entry i by moving the last entry into its place.
func (s *lockSet) removeAt(i int) {
	last := len(s.ents) - 1
	if s.index != nil {
		delete(s.index, s.ents[i].t)
	}
	if i != last {
		s.ents[i] = s.ents[last]
		if s.index != nil {
			s.index[s.ents[i].t] = int32(i)
		}
	}
	s.ents[last] = lockEntry{}
	s.ents = s.ents[:last]
}

// compact removes every entry that is neither held nor counted — what a
// promotion leaves behind after clearing held marks and counters in one
// walk over s.ents.
func (s *lockSet) compact() {
	j := 0
	for i := range s.ents {
		e := s.ents[i]
		if !e.held && e.n == 0 {
			if s.index != nil {
				delete(s.index, e.t)
			}
			continue
		}
		if j != i {
			s.ents[j] = e
			if s.index != nil {
				s.index[e.t] = int32(j)
			}
		}
		j++
	}
	clear(s.ents[j:])
	s.ents = s.ents[:j]
}

// reset empties s and lets go of any storage past the inline entries.
func (s *lockSet) reset() {
	clear(s.inline[:])
	s.ents = nil
	s.index = nil
}
