package decomp

import (
	"cmp"
	"runtime"
	"slices"
	"testing"

	"sadproute/internal/geom"
)

// mapIndex is the hashed-bucket rectIndex the dense grid replaced, kept
// as the reference for its callback sequence: one map entry per fine
// bucket, ids appended in insertion order, buckets walked row-major.
type mapIndex struct {
	cell  int
	m     map[geom.Pt][]int32
	n     int
	stamp []int32
	cur   int32
}

func (ix *mapIndex) reset(cell int) {
	if cell <= 0 {
		cell = 200
	}
	ix.cell, ix.n = cell, 0
	ix.m = make(map[geom.Pt][]int32)
}

func (ix *mapIndex) buckets(r geom.Rect) (bx0, by0, bx1, by1 int) {
	return floordiv(r.X0, ix.cell), floordiv(r.Y0, ix.cell),
		floordiv(r.X1-1, ix.cell), floordiv(r.Y1-1, ix.cell)
}

func (ix *mapIndex) add(id int, r geom.Rect) {
	if !r.Empty() {
		bx0, by0, bx1, by1 := ix.buckets(r)
		for by := by0; by <= by1; by++ {
			for bx := bx0; bx <= bx1; bx++ {
				k := geom.Pt{X: bx, Y: by}
				ix.m[k] = append(ix.m[k], int32(id))
			}
		}
	}
	if id >= ix.n {
		ix.n = id + 1
	}
}

func (ix *mapIndex) query(r geom.Rect, fn func(id int)) {
	if r.Empty() {
		return
	}
	if len(ix.stamp) < ix.n {
		ix.stamp = make([]int32, ix.n)
		ix.cur = 0
	}
	ix.cur++
	bx0, by0, bx1, by1 := ix.buckets(r)
	for by := by0; by <= by1; by++ {
		for bx := bx0; bx <= bx1; bx++ {
			for _, id := range ix.m[geom.Pt{X: bx, Y: by}] {
				if ix.stamp[id] == ix.cur {
					continue
				}
				ix.stamp[id] = ix.cur
				fn(int(id))
			}
		}
	}
}

// bucketArea is the number of fine buckets r covers at cell, saturated.
func bucketArea(r geom.Rect, cell int) uint64 {
	if r.Empty() {
		return 0
	}
	w := uint64(floordiv(r.X1-1, cell) - floordiv(r.X0, cell))
	h := uint64(floordiv(r.Y1-1, cell) - floordiv(r.Y0, cell))
	if w >= 1<<20 || h >= 1<<20 {
		return 1 << 40
	}
	return (w + 1) * (h + 1)
}

// expectQuery is the reference order in closed form: every id whose fine
// buckets meet q's, ordered by the fine bucket where a row-major walk
// first meets it, then by id.
func expectQuery(rects []geom.Rect, cell int, q geom.Rect) []int {
	if cell <= 0 {
		cell = 200
	}
	if q.Empty() {
		return nil
	}
	ix := rectIndex{cell: cell}
	qs := ix.buckets(q)
	var hits []hit
	for id, r := range rects {
		if r.Empty() {
			continue
		}
		s := ix.buckets(r)
		if s.x0 <= qs.x1 && qs.x0 <= s.x1 && s.y0 <= qs.y1 && qs.y0 <= s.y1 {
			hits = append(hits, hit{y: max(s.y0, qs.y0), x: max(s.x0, qs.x0), id: int32(id)})
		}
	}
	slices.SortFunc(hits, func(a, b hit) int {
		return cmp.Or(cmp.Compare(a.y, b.y), cmp.Compare(a.x, b.x), cmp.Compare(a.id, b.id))
	})
	out := make([]int, 0, len(hits))
	for _, h := range hits {
		out = append(out, int(h.id))
	}
	return out
}

func collect(query func(geom.Rect, func(int)), q geom.Rect) []int {
	out := []int{}
	query(q, func(id int) { out = append(out, id) })
	return out
}

// fuzzBytes reads a fuzz input one byte at a time, then zeros.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (b *fuzzBytes) next() int {
	if b.pos >= len(b.data) {
		return 0
	}
	b.pos++
	return int(b.data[b.pos-1])
}

// coord draws a coordinate: mostly within a few thousand nm of the origin
// on either side, sometimes 10^9 nm away, rarely near ±2^61.
func (b *fuzzBytes) coord() int {
	v := int(int8(b.next())) * (1 + b.next()%64)
	switch b.next() % 8 {
	case 6:
		v += (b.next()%5 - 2) * 1_000_000_000
	case 7:
		v += (b.next()%3 - 1) << 61
	}
	return v
}

// rect draws a rect at coord corners; a non-positive side makes it empty,
// and a rare scale-up makes it span 10^9 nm.
func (b *fuzzBytes) rect() geom.Rect {
	x0, y0 := b.coord(), b.coord()
	w, h := b.next()%240-16, b.next()%240-16
	if b.next()%16 == 0 {
		w, h = w<<23, h<<23
	}
	return geom.Rect{X0: x0, Y0: y0, X1: x0 + w, Y1: y0 + h}
}

// FuzzRectIndex holds the dense bucket grid to the hashed-bucket index it
// replaced. Each input is several reset/add/query rounds on one reused
// index, with adds also between queries. Every query must produce exactly
// the reference callback sequence — the order is the contract, since it
// orders the oracle's Violations — and the grid must stay within
// bucketBudget however far apart or large the rects are. The map reference
// runs only where it is cheap; the closed-form order of expectQuery runs
// everywhere.
func FuzzRectIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 5, 1, 0, 2, 0, 60, 40, 1, 9, 0, 1, 0, 90, 30, 1, 0, 0, 0, 0, 0, 200, 200})
	f.Add([]byte{4, 1, 3, 200, 3, 0, 1, 2, 10, 1, 0, 60, 60, 1, 10, 1, 6, 4, 10, 1, 0, 60, 60, 2, 0, 0, 0, 0, 0, 0, 0, 1, 3})
	f.Add([]byte{1, 1, 2, 10, 2, 7, 2, 10, 2, 7, 0, 20, 20, 0, 246, 2, 7, 0, 10, 2, 7, 2, 20, 20, 0})
	f.Add([]byte{2, 2, 4, 0, 1, 0, 0, 1, 0, 17, 17, 16, 255, 1, 0, 255, 1, 0, 5, 5, 0, 1, 1, 0, 1, 1, 0, 40, 40})
	cells := [...]int{0, 1, 3, 40, 200}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &fuzzBytes{data: data}
		var ix rectIndex
		var ref mapIndex
		for round := 1 + b.next()%3; round > 0; round-- {
			cell := cells[b.next()%len(cells)]
			ix.reset(cell)
			ref.reset(cell)
			refCell := ref.cell
			var rects []geom.Rect
			refOK := true
			add := func() {
				r := b.rect()
				id := len(rects)
				rects = append(rects, r)
				ix.add(id, r)
				if refOK = refOK && bucketArea(r, refCell) <= 1<<12; refOK {
					ref.add(id, r)
				}
			}
			for k := b.next() % 10; k > 0; k-- {
				add()
			}
			for k := 1 + b.next()%4; k > 0; k-- {
				if b.next()%4 == 0 {
					add()
				}
				q := b.rect()
				got := collect(ix.query, q)
				if want := expectQuery(rects, cell, q); !slices.Equal(got, want) {
					t.Fatalf("cell %d, rects %v, query %v: got %v, want %v", cell, rects, q, got, want)
				}
				if ix.shift == 0 && refOK && bucketArea(q, refCell) <= 1<<12 {
					if want := collect(ref.query, q); !slices.Equal(got, want) {
						t.Fatalf("cell %d, rects %v, query %v: got %v, map index %v", cell, rects, q, got, want)
					}
				}
				if len(ix.start) > bucketBudget+1 || len(ix.ids) > bucketBudget+len(rects) {
					t.Fatalf("grid of %d buckets and %d entries for %d rects passes the budget",
						len(ix.start)-1, len(ix.ids), len(rects))
				}
			}
		}
	})
}

// TestRectIndexFarApart pins the bound: two rects 10^9 nm apart must not
// get a grid sized by their distance, and queries keep the fine-bucket
// answer.
func TestRectIndexFarApart(t *testing.T) {
	rects := []geom.Rect{
		{X0: 0, Y0: 0, X1: 40, Y1: 40},
		{X0: 1_000_000_000, Y0: -1_000_000_000, X1: 1_000_000_040, Y1: -999_999_960},
		{X0: 30, Y0: 10, X1: 300, Y1: 20},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var ix rectIndex
	ix.reset(200)
	for id, r := range rects {
		ix.add(id, r)
	}
	for _, q := range []geom.Rect{rects[0].Expand(50), rects[1].Expand(1), {X0: -1 << 40, Y0: -1 << 40, X1: 1 << 40, Y1: 1 << 40}} {
		if got, want := collect(ix.query, q), expectQuery(rects, 200, q); !slices.Equal(got, want) {
			t.Errorf("query %v: got %v, want %v", q, got, want)
		}
	}
	runtime.ReadMemStats(&after)
	if ix.shift == 0 {
		t.Error("rects 10^9 nm apart were indexed at the fine bucket size")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("indexing 3 rects allocated %d bytes", grew)
	}
}
