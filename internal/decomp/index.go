package decomp

import (
	"cmp"
	"math"
	"slices"

	"sadproute/internal/geom"
)

// bucketBudget bounds the dense bucket grid of one rectIndex build, and
// the bucket entries beyond one per rect. It is 13× the grid of Huge3's
// full die, so every routed layout stays at the fine bucket size; only a
// pathological layout (rects 10^9 nm apart, or many die-sized rects)
// is indexed at a coarser one.
const bucketBudget = 1 << 20

// rectIndex is a uniform-bucket spatial index over rectangles, used for all
// proximity queries in the oracle (assist keepouts, merge-pair search,
// boundary-protection coverage). Bucket size is a few track pitches so a
// query touches O(1) buckets for the short interaction ranges of SADP rules.
//
// The buckets are a dense CSR grid over the bucket bounding box of the
// rects added since reset: per-bucket offsets into one id array, built
// once before the first query from counts and prefix sums. The arrays
// belong to the pooled Engine, so reset is O(1) and a build reuses them.
// When the box or its entries would pass bucketBudget, the grid buckets
// are 2^k fine buckets wide; query then filters and orders its candidates
// so that the callback sequence never depends on the grid.
type rectIndex struct {
	cell int
	// spans holds each id's fine bucket range; x1 < x0 marks an empty rect.
	spans []bspan
	// Bucket bounding box of the non-empty spans (empty while bx0 > bx1).
	bx0, by0, bx1, by1 int
	built              bool
	// The grid: rows of gw buckets of 2^shift×2^shift fine buckets each;
	// bucket b holds ids[start[b]:start[b+1]] in insertion order.
	shift uint
	gw    int
	start []int32
	ids   []int32
	stamp []int32
	cur   int32
	// hits is the coarse-grid query's candidate scratch.
	hits []hit
}

// bspan is a rect's inclusive range of fine buckets.
type bspan struct{ x0, y0, x1, y1 int }

// hit is a coarse-grid query candidate keyed by the fine bucket where a
// fine-grid walk first meets it.
type hit struct {
	y, x int
	id   int32
}

// reset empties the index for reuse (pooled engines), keeping the grid's
// storage. The stamp table survives across uses — entries from an earlier
// life are always below the ever-increasing query stamp — but the stamp
// must not wrap, so a long-lived engine re-zeros it well before int32
// overflow.
func (ix *rectIndex) reset(cell int) {
	if cell <= 0 {
		cell = 200
	}
	ix.cell = cell
	ix.spans = ix.spans[:0]
	ix.bx0, ix.by0, ix.bx1, ix.by1 = math.MaxInt, math.MaxInt, math.MinInt, math.MinInt
	ix.built = false
	if ix.cur > 1<<30 {
		clear(ix.stamp)
		ix.cur = 0
	}
}

func (ix *rectIndex) buckets(r geom.Rect) bspan {
	return bspan{floordiv(r.X0, ix.cell), floordiv(r.Y0, ix.cell),
		floordiv(r.X1-1, ix.cell), floordiv(r.Y1-1, ix.cell)}
}

// add registers rect r under integer id. Ids must be assigned densely from
// zero in insertion order.
func (ix *rectIndex) add(id int, r geom.Rect) {
	for len(ix.spans) <= id {
		ix.spans = append(ix.spans, bspan{x0: 1})
	}
	ix.built = false
	if r.Empty() {
		// Keep the stamp table aligned with ids even for empty rects.
		ix.spans[id] = bspan{x0: 1}
		return
	}
	s := ix.buckets(r)
	ix.spans[id] = s
	ix.bx0, ix.by0 = min(ix.bx0, s.x0), min(ix.by0, s.y0)
	ix.bx1, ix.by1 = max(ix.bx1, s.x1), max(ix.by1, s.y1)
}

// rel returns span s in grid buckets at shift k, relative to the box.
// The wrapping subtraction is exact in uint64: s lies inside the box.
func (ix *rectIndex) rel(s bspan, k uint) (x0, y0, x1, y1 int) {
	return int(uint64(s.x0-ix.bx0) >> k), int(uint64(s.y0-ix.by0) >> k),
		int(uint64(s.x1-ix.bx0) >> k), int(uint64(s.y1-ix.by0) >> k)
}

// fits reports whether the grid at shift k stays within bucketBudget:
// at most bucketBudget buckets, and at most bucketBudget entries beyond
// one per rect.
func (ix *rectIndex) fits(k uint) bool {
	w, h := uint64(ix.bx1-ix.bx0)>>k, uint64(ix.by1-ix.by0)>>k
	if w >= bucketBudget || h >= bucketBudget || (w+1)*(h+1) > bucketBudget {
		return false
	}
	entries, limit := 0, bucketBudget+len(ix.spans)
	for _, s := range ix.spans {
		if s.x1 >= s.x0 {
			x0, y0, x1, y1 := ix.rel(s, k)
			if entries += (x1 - x0 + 1) * (y1 - y0 + 1); entries > limit {
				return false
			}
		}
	}
	return true
}

// build lays the rects added since reset out as the CSR grid.
func (ix *rectIndex) build() {
	ix.built = true
	if ix.bx0 > ix.bx1 {
		return // no rects: query clamps every query away
	}
	k := uint(0)
	for !ix.fits(k) {
		k++
	}
	ix.shift = k
	ix.gw = int(uint64(ix.bx1-ix.bx0)>>k) + 1
	nb := ix.gw * (int(uint64(ix.by1-ix.by0)>>k) + 1)
	// Count each bucket's ids into start[b], turn the counts into running
	// totals, then place ids in reverse, decrementing start[b] before each
	// write: every bucket ends up holding its ids in insertion order, and
	// start[b] at its first.
	start := slices.Grow(ix.start[:0], nb+1)[:nb+1]
	clear(start)
	for _, s := range ix.spans {
		if s.x1 < s.x0 {
			continue
		}
		x0, y0, x1, y1 := ix.rel(s, k)
		for y := y0; y <= y1; y++ {
			row := start[y*ix.gw : (y+1)*ix.gw]
			for x := x0; x <= x1; x++ {
				row[x]++
			}
		}
	}
	total := int32(0)
	for b := range nb {
		total += start[b]
		start[b] = total
	}
	start[nb] = total
	ids := slices.Grow(ix.ids[:0], int(total))[:total]
	for id := len(ix.spans) - 1; id >= 0; id-- {
		s := ix.spans[id]
		if s.x1 < s.x0 {
			continue
		}
		x0, y0, x1, y1 := ix.rel(s, k)
		for y := y0; y <= y1; y++ {
			row := start[y*ix.gw : (y+1)*ix.gw]
			for x := x0; x <= x1; x++ {
				row[x]--
				ids[row[x]] = int32(id)
			}
		}
	}
	ix.start, ix.ids = start, ids
}

// query calls fn exactly once for every registered id whose rect's buckets
// intersect r's buckets. Callers re-check precise geometry themselves.
//
// The callback order is part of the contract: buckets row-major, each
// bucket's ids in insertion order, an id at the first bucket that holds
// it. It orders the oracle's Violations (abutments, bridge collisions);
// every other consumer sorts its candidates or does not depend on order.
func (ix *rectIndex) query(r geom.Rect, fn func(id int)) {
	if r.Empty() {
		return
	}
	if !ix.built {
		ix.build()
	}
	if len(ix.stamp) < len(ix.spans) {
		ix.stamp = make([]int32, len(ix.spans))
		ix.cur = 0
	}
	ix.cur++
	q := ix.buckets(r)
	q.x0, q.y0 = max(q.x0, ix.bx0), max(q.y0, ix.by0)
	q.x1, q.y1 = min(q.x1, ix.bx1), min(q.y1, ix.by1)
	if q.x0 > q.x1 || q.y0 > q.y1 {
		return
	}
	x0, y0, x1, y1 := ix.rel(q, ix.shift)
	if ix.shift == 0 {
		// A row's buckets are adjacent in ids: walk it as one run.
		for y := y0; y <= y1; y++ {
			row := ix.start[y*ix.gw:]
			for _, id := range ix.ids[row[x0]:row[x1+1]] {
				if ix.stamp[id] == ix.cur {
					continue
				}
				ix.stamp[id] = ix.cur
				fn(int(id))
			}
		}
		return
	}
	// Coarse grid: keep the ids whose fine buckets meet q's, and order them
	// by the fine bucket where a fine walk first meets them.
	hits := ix.hits[:0]
	for y := y0; y <= y1; y++ {
		row := ix.start[y*ix.gw:]
		for _, id := range ix.ids[row[x0]:row[x1+1]] {
			if ix.stamp[id] == ix.cur {
				continue
			}
			ix.stamp[id] = ix.cur
			s := ix.spans[id]
			if s.x0 <= q.x1 && q.x0 <= s.x1 && s.y0 <= q.y1 && q.y0 <= s.y1 {
				hits = append(hits, hit{y: max(s.y0, q.y0), x: max(s.x0, q.x0), id: id})
			}
		}
	}
	slices.SortFunc(hits, func(a, b hit) int {
		return cmp.Or(cmp.Compare(a.y, b.y), cmp.Compare(a.x, b.x), cmp.Compare(a.id, b.id))
	})
	ix.hits = hits
	for _, h := range hits {
		fn(int(h.id))
	}
}

func floordiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
