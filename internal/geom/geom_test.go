package geom

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := R(10, 0, 0, 20) // canonicalizes
	if r != (Rect{0, 0, 10, 20}) {
		t.Fatalf("R canonicalization: %v", r)
	}
	if r.W() != 10 || r.H() != 20 || r.Area() != 200 {
		t.Fatalf("dims wrong: %v", r)
	}
	if !r.Contains(Pt{0, 0}) || r.Contains(Pt{10, 0}) {
		t.Fatal("half-open containment wrong")
	}
}

func TestIntersectUnion(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	if x := a.Intersect(b); x != (Rect{5, 5, 10, 10}) {
		t.Fatalf("intersect: %v", x)
	}
	if u := a.Union(b); u != (Rect{0, 0, 15, 15}) {
		t.Fatalf("union: %v", u)
	}
	if a.Intersects(Rect{10, 0, 20, 10}) {
		t.Fatal("touching rects must not intersect (half-open)")
	}
}

func TestGapsAndDist(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{13, 14, 20, 20}
	if a.GapX(b) != 3 || a.GapY(b) != 4 {
		t.Fatalf("gaps: %d %d", a.GapX(b), a.GapY(b))
	}
	if a.DistSq(b) != 25 {
		t.Fatalf("distsq: %d", a.DistSq(b))
	}
	if a.DistSq(Rect{5, 5, 8, 8}) != 0 {
		t.Fatal("overlapping rects must have zero distance")
	}
}

func TestOrient(t *testing.T) {
	if (Rect{0, 0, 10, 1}).Orient() != OrientH ||
		(Rect{0, 0, 1, 10}).Orient() != OrientV ||
		(Rect{0, 0, 2, 2}).Orient() != OrientNone {
		t.Fatal("orientation wrong")
	}
}

// TestQuickSubtract checks that r.AppendSubtract(dst, s) keeps dst and
// appends pieces that partition r \ s exactly.
func TestQuickSubtract(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rr := func() Rect {
			x, y := rng.Intn(20), rng.Intn(20)
			return Rect{x, y, x + 1 + rng.Intn(10), y + 1 + rng.Intn(10)}
		}
		r, s := rr(), rr()
		dst := make([]Rect, rng.Intn(3), 8)
		for i := range dst {
			dst[i] = rr()
		}
		prefix := slices.Clone(dst)
		out := r.AppendSubtract(dst, s)
		if !slices.Equal(out[:len(prefix)], prefix) {
			return false
		}
		pieces := out[len(prefix):]
		// Pieces must be disjoint, inside r, outside s, and cover r \ s.
		area := 0
		for i, p := range pieces {
			if p.Empty() || !r.ContainsRect(p) || p.Intersects(s) {
				return false
			}
			for j := i + 1; j < len(pieces); j++ {
				if p.Intersects(pieces[j]) {
					return false
				}
			}
			area += p.Area()
		}
		return area == r.Area()-r.Intersect(s).Area()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentCells(t *testing.T) {
	// L-shape: horizontal run of 4 plus vertical run of 3 sharing a corner.
	var cells []Pt
	for x := 0; x < 4; x++ {
		cells = append(cells, Pt{x, 0})
	}
	for y := 1; y < 3; y++ {
		cells = append(cells, Pt{3, y})
	}
	frags := FragmentCells(nil, cells)
	if len(frags) != 2 {
		t.Fatalf("want 2 fragments, got %v", frags)
	}
	// Every cell covered by at least one fragment.
	for _, c := range cells {
		found := false
		for _, f := range frags {
			if f.Contains(c) {
				found = true
			}
		}
		if !found {
			t.Fatalf("cell %v uncovered by %v", c, frags)
		}
	}
}

func TestFragmentIsolated(t *testing.T) {
	frags := FragmentCells(nil, []Pt{{5, 5}})
	if len(frags) != 1 || frags[0] != (Rect{5, 5, 6, 6}) {
		t.Fatalf("got %v", frags)
	}
}

// TestQuickFragmentCovers: fragmentation covers exactly the input cells.
func TestQuickFragmentCovers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := map[Pt]bool{}
		var cells []Pt
		// Random walk to create wire-like shapes.
		x, y := 10, 10
		for i := 0; i < 30; i++ {
			p := Pt{x, y}
			if !set[p] {
				set[p] = true
				cells = append(cells, p)
			}
			if rng.Intn(2) == 0 {
				x += rng.Intn(3) - 1
			} else {
				y += rng.Intn(3) - 1
			}
		}
		frags := FragmentCells(nil, cells)
		covered := map[Pt]bool{}
		for _, fr := range frags {
			for _, c := range CellsOfRect(fr) {
				if !set[c] {
					return false // fragment outside the input
				}
				covered[c] = true
			}
		}
		return len(covered) == len(set)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFragmentMatchesMaps holds FragmentCells to the map-based
// fragmentation it replaced, rect for rect and in order, on random walks
// that revisit cells, appended after a prefix that must stay.
func TestQuickFragmentMatchesMaps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cells []Pt
		x, y := rng.Intn(5), rng.Intn(5)
		for range 1 + rng.Intn(60) {
			cells = append(cells, Pt{x, y})
			if rng.Intn(2) == 0 {
				x += rng.Intn(3) - 1
			} else {
				y += rng.Intn(3) - 1
			}
		}
		want := mapFragments(cells)
		prefix := []Rect{{0, 0, 1, 1}}
		got := FragmentCells(slices.Clone(prefix), slices.Clone(cells))
		return slices.Equal(got[:1], prefix) && slices.Equal(got[1:], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// mapFragments is the map-based fragmentation FragmentCells replaced,
// with its caller's first-seen deduplication of revisited cells.
func mapFragments(path []Pt) []Rect {
	set := map[Pt]bool{}
	var cells []Pt
	for _, c := range path {
		if !set[c] {
			set[c] = true
			cells = append(cells, c)
		}
	}
	inRun := map[Pt]bool{}
	var out []Rect
	for _, c := range cells {
		if set[Pt{c.X - 1, c.Y}] {
			continue
		}
		x1 := c.X + 1
		for set[Pt{x1, c.Y}] {
			x1++
		}
		if x1-c.X >= 2 {
			out = append(out, Rect{c.X, c.Y, x1, c.Y + 1})
			for x := c.X; x < x1; x++ {
				inRun[Pt{x, c.Y}] = true
			}
		}
	}
	for _, c := range cells {
		if set[Pt{c.X, c.Y - 1}] {
			continue
		}
		y1 := c.Y + 1
		for set[Pt{c.X, y1}] {
			y1++
		}
		if y1-c.Y >= 2 {
			out = append(out, Rect{c.X, c.Y, c.X + 1, y1})
			for y := c.Y; y < y1; y++ {
				inRun[Pt{c.X, y}] = true
			}
		}
	}
	for _, c := range cells {
		if !inRun[c] {
			out = append(out, Rect{c.X, c.Y, c.X + 1, c.Y + 1})
			inRun[c] = true
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Y0 != b.Y0 {
			return a.Y0 < b.Y0
		}
		if a.X0 != b.X0 {
			return a.X0 < b.X0
		}
		if a.X1 != b.X1 {
			return a.X1 < b.X1
		}
		return a.Y1 < b.Y1
	})
	return out
}
