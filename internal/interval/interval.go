// Package interval implements 1-D integer interval-set algebra —
// infrastructure with no paper section of its own. It is the workhorse of
// the layout-decomposition oracle: side-overlay measurement,
// spacer-protection coverage, and cut-conflict detection are all expressed
// as unions, intersections and subtractions of half-open intervals along a
// pattern boundary.
package interval

import (
	"fmt"
	"sort"
)

// Iv is a half-open interval [Lo, Hi). An Iv with Hi <= Lo is empty.
type Iv struct {
	Lo, Hi int
}

// Empty reports whether iv covers nothing.
func (iv Iv) Empty() bool { return iv.Hi <= iv.Lo }

// Len returns the length of iv (zero if empty).
func (iv Iv) Len() int {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Intersect returns the overlap of two intervals (possibly empty).
func (iv Iv) Intersect(o Iv) Iv {
	r := Iv{maxi(iv.Lo, o.Lo), mini(iv.Hi, o.Hi)}
	if r.Empty() {
		return Iv{}
	}
	return r
}

// Overlaps reports whether iv and o share at least one point.
func (iv Iv) Overlaps(o Iv) bool { return iv.Lo < o.Hi && o.Lo < iv.Hi }

func (iv Iv) String() string { return fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi) }

// Set is a set of disjoint, sorted, non-touching intervals. The zero value
// is an empty set ready to use.
type Set struct {
	ivs []Iv
}

// NewSet builds a Set from arbitrary (possibly overlapping, unsorted)
// intervals.
func NewSet(ivs ...Iv) *Set {
	s := &Set{}
	for _, iv := range ivs {
		s.Add(iv)
	}
	return s
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	out := &Set{ivs: make([]Iv, len(s.ivs))}
	copy(out.ivs, s.ivs)
	return out
}

// Reset empties s, keeping its backing storage for reuse.
func (s *Set) Reset() { s.ivs = s.ivs[:0] }

// CopyFrom replaces s's contents with o's, reusing s's backing storage.
func (s *Set) CopyFrom(o *Set) { s.ivs = append(s.ivs[:0], o.ivs...) }

// Add inserts iv, merging with any interval it overlaps or touches.
func (s *Set) Add(iv Iv) {
	if iv.Empty() {
		return
	}
	// Find insertion window: all intervals with Hi >= iv.Lo and Lo <= iv.Hi
	// merge with iv (touching intervals coalesce).
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].Hi >= iv.Lo })
	j := i
	for j < len(s.ivs) && s.ivs[j].Lo <= iv.Hi {
		if s.ivs[j].Lo < iv.Lo {
			iv.Lo = s.ivs[j].Lo
		}
		if s.ivs[j].Hi > iv.Hi {
			iv.Hi = s.ivs[j].Hi
		}
		j++
	}
	// Splice [i, j) down to the single merged interval in place; only a
	// pure insertion (j == i) can grow the slice.
	if j == i {
		s.ivs = append(s.ivs, Iv{})
		copy(s.ivs[i+1:], s.ivs[i:])
		s.ivs[i] = iv
		return
	}
	s.ivs[i] = iv
	s.ivs = append(s.ivs[:i+1], s.ivs[j:]...)
}

// AddSet inserts every interval of o into s.
func (s *Set) AddSet(o *Set) {
	for _, iv := range o.ivs {
		s.Add(iv)
	}
}

// Subtract removes iv from the set.
func (s *Set) Subtract(iv Iv) {
	if iv.Empty() || len(s.ivs) == 0 {
		return
	}
	// The affected window [i, j): intervals strictly before i end at or
	// before iv.Lo, intervals from j start at or after iv.Hi; the window
	// collapses to at most a left remnant and a right remnant.
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].Hi > iv.Lo })
	j := i
	for j < len(s.ivs) && s.ivs[j].Lo < iv.Hi {
		j++
	}
	if i == j {
		return
	}
	var keep [2]Iv
	nk := 0
	if s.ivs[i].Lo < iv.Lo {
		keep[nk] = Iv{s.ivs[i].Lo, iv.Lo}
		nk++
	}
	if s.ivs[j-1].Hi > iv.Hi {
		keep[nk] = Iv{iv.Hi, s.ivs[j-1].Hi}
		nk++
	}
	// Splice the remnants over the window in place; only a split of a
	// single interval into two (nk == 2, window of one) can grow the slice.
	if nk > j-i {
		s.ivs = append(s.ivs, Iv{})
		copy(s.ivs[j+1:], s.ivs[j:])
		j++
	}
	copy(s.ivs[i:], keep[:nk])
	s.ivs = append(s.ivs[:i+nk], s.ivs[j:]...)
}

// SubtractSet removes every interval of o from s.
func (s *Set) SubtractSet(o *Set) {
	for _, iv := range o.ivs {
		s.Subtract(iv)
	}
}

// Intersect sets s to the parts of a covered by b, reusing s's backing
// storage. s must be neither a nor b.
func (s *Set) Intersect(a, b *Set) {
	out := s.ivs[:0]
	for _, x := range a.ivs {
		for _, y := range b.ivs {
			if iv := x.Intersect(y); !iv.Empty() {
				out = append(out, iv)
			}
		}
	}
	s.ivs = out
}

// Complement returns within \ s, i.e. the uncovered parts of the given span.
func (s *Set) Complement(within Iv) *Set {
	out := NewSet(within)
	for _, iv := range s.ivs {
		out.Subtract(iv)
	}
	return out
}

// TotalLen returns the summed length of all intervals.
func (s *Set) TotalLen() int {
	t := 0
	for _, iv := range s.ivs {
		t += iv.Len()
	}
	return t
}

// Intervals returns the disjoint sorted intervals of s. The returned slice
// must not be modified.
func (s *Set) Intervals() []Iv { return s.ivs }

// Len returns the number of disjoint intervals.
func (s *Set) Len() int { return len(s.ivs) }

// Covers reports whether iv is fully covered by s.
func (s *Set) Covers(iv Iv) bool {
	if iv.Empty() {
		return true
	}
	for _, cur := range s.ivs {
		if cur.Lo <= iv.Lo && cur.Hi >= iv.Hi {
			return true
		}
	}
	return false
}

// Contains reports whether point x is covered by s.
func (s *Set) Contains(x int) bool {
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].Hi > x })
	return i < len(s.ivs) && s.ivs[i].Lo <= x
}

// MaxRunLen returns the length of the longest interval in s (0 if empty).
func (s *Set) MaxRunLen() int {
	m := 0
	for _, iv := range s.ivs {
		if l := iv.Len(); l > m {
			m = l
		}
	}
	return m
}

func (s *Set) String() string {
	return fmt.Sprint(s.ivs)
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func mini(a, b int) int {
	if a < b {
		return a
	}
	return b
}
