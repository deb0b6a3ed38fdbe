// Package fragstore indexes routed wire fragments (the Theorem 3
// rectangles of Section III-A, in grid-cell coordinates) per layer for
// scenario detection, with removal support for rip-up — infrastructure
// shared by the paper's router and the baseline routers.
package fragstore

import (
	"slices"

	"sadproute/internal/decomp"
	"sadproute/internal/geom"
	"sadproute/internal/grid"
)

// Frag is one rectangle fragment of a net's wiring on one layer, in cell
// coordinates (Theorem 3 fragmentation).
type Frag struct {
	Net  int
	Rect geom.Rect
}

// Store indexes the routed fragments of one layer for scenario
// detection; it supports removal for rip-up, which drops a net's fragments
// from the buckets and frees their ids for the next Add, so frags holds at
// most the peak live count. Queries only read the store; Add and RemoveNet
// must not run concurrently with any other call.
type Store struct {
	frags   []Frag
	free    []int32 // ids of removed fragments, reused last-freed first
	byNet   map[int][]int32
	buckets map[geom.Pt][]int32
	bucket  int
	// AddPath's scratch: one path's cells on this layer and their rects.
	cells []geom.Pt
	rects []geom.Rect
}

func New() *Store {
	return &Store{
		byNet:   make(map[int][]int32),
		buckets: make(map[geom.Pt][]int32),
		bucket:  16, // cells per bucket
	}
}

func (fs *Store) keyRange(r geom.Rect) (x0, y0, x1, y1 int) {
	return fdiv(r.X0, fs.bucket), fdiv(r.Y0, fs.bucket),
		fdiv(r.X1-1, fs.bucket), fdiv(r.Y1-1, fs.bucket)
}

// Add registers the fragments of net on this layer.
func (fs *Store) Add(net int, rects []geom.Rect) {
	for _, r := range rects {
		var id int32
		if k := len(fs.free) - 1; k >= 0 {
			id, fs.free = fs.free[k], fs.free[:k]
			fs.frags[id] = Frag{Net: net, Rect: r}
		} else {
			id = int32(len(fs.frags))
			fs.frags = append(fs.frags, Frag{Net: net, Rect: r})
		}
		fs.byNet[net] = append(fs.byNet[net], id)
		x0, y0, x1, y1 := fs.keyRange(r)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				k := geom.Pt{X: x, Y: y}
				fs.buckets[k] = append(fs.buckets[k], id)
			}
		}
	}
}

// RemoveNet drops every fragment of a net (rip-up) from its buckets and
// frees their ids; the other fragments keep their order in each bucket.
func (fs *Store) RemoveNet(net int) {
	ofNet := func(id int32) bool { return fs.frags[id].Net == net }
	for _, id := range fs.byNet[net] {
		x0, y0, x1, y1 := fs.keyRange(fs.frags[id].Rect)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				k := geom.Pt{X: x, Y: y}
				fs.buckets[k] = slices.DeleteFunc(fs.buckets[k], ofNet)
			}
		}
	}
	fs.free = append(fs.free, fs.byNet[net]...)
	delete(fs.byNet, net)
}

// Query invokes fn once per fragment whose rect meets r: buckets
// row-major, each bucket's fragments in insertion order, a fragment at the
// first bucket that holds it. fn must not modify fs.
func (fs *Store) Query(r geom.Rect, fn func(f Frag)) {
	b := fs.bucket
	x0, y0, x1, y1 := fs.keyRange(r)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, id := range fs.buckets[geom.Pt{X: x, Y: y}] {
				// The first of r's buckets that holds a fragment meeting r
				// is the one holding the low corner of their intersection.
				if f := fs.frags[id]; f.Rect.Intersects(r) &&
					max(f.Rect.X0, r.X0) >= x*b && max(f.Rect.Y0, r.Y0) >= y*b {
					fn(f)
				}
			}
		}
	}
}

// EachNetRect calls fn with each rect of a net, in insertion order,
// without copying them. fn must not modify fs.
func (fs *Store) EachNetRect(net int, fn func(r geom.Rect)) {
	for _, id := range fs.byNet[net] {
		fn(fs.frags[id].Rect)
	}
}

// AppendNets appends to ids the net of every fragment meeting r, then
// sorts ids and drops repeats: a window's nets, from one query.
func (fs *Store) AppendNets(ids []int, r geom.Rect) []int {
	fs.Query(r, func(f Frag) { ids = append(ids, f.Net) })
	slices.Sort(ids)
	return slices.Compact(ids)
}

// NetIDs returns the sorted net ids with fragments.
func (fs *Store) NetIDs() []int {
	out := make([]int, 0, len(fs.byNet))
	for n := range fs.byNet {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Has reports whether the net has fragments.
func (fs *Store) Has(net int) bool { return len(fs.byNet[net]) > 0 }

// Layout assembles the oracle input for the nets in ids on this layer, in
// the order given: each net's fragments converted to nm, colored from
// colors (indexed by net). Nets without fragments, and skip, are left out
// (pass -1 to skip none).
func (fs *Store) Layout(g *grid.Grid, colors []decomp.Color, ids []int, skip int) decomp.Layout {
	return fs.BuildLayout(new(LayoutBuf), g, colors, ids, skip)
}

// LayoutBuf holds the patterns and nm rects of the layouts BuildLayout
// assembles, reused from one build to the next.
type LayoutBuf struct {
	pats  []decomp.Pattern
	rects []geom.Rect
}

// BuildLayout is Layout assembled in buf's storage: the layout is valid
// until the next build into buf, and a warm buf allocates nothing.
func (fs *Store) BuildLayout(buf *LayoutBuf, g *grid.Grid, colors []decomp.Color, ids []int, skip int) decomp.Layout {
	pats, rects := buf.pats[:0], buf.rects[:0]
	for _, n := range ids {
		if n == skip {
			continue
		}
		// A later append may move rects; the rects a pattern holds stay
		// where they were written, unchanged.
		lo := len(rects)
		for _, id := range fs.byNet[n] {
			rects = append(rects, g.CellsToNM(fs.frags[id].Rect))
		}
		if len(rects) > lo {
			pats = append(pats, decomp.Pattern{Net: n, Color: colors[n], Rects: rects[lo:len(rects):len(rects)]})
		}
	}
	buf.pats, buf.rects = pats, rects
	return decomp.Layout{Rules: g.Rules, Die: g.DieNM(), Pats: pats}
}

// Layouts assembles the oracle input of every layer: all nets with
// fragments, in id order, colored from colors[l] (indexed by net).
func Layouts(stores []*Store, g *grid.Grid, colors [][]decomp.Color) []decomp.Layout {
	out := make([]decomp.Layout, len(stores))
	for l, fs := range stores {
		out[l] = fs.Layout(g, colors[l], fs.NetIDs(), -1)
	}
	return out
}

// AddPath registers a routed path's fragments with the per-layer stores:
// each layer's cells, a revisited cell counted once, fragmented into rects
// (geom.FragmentCells).
func AddPath(stores []*Store, net int, path []grid.Cell) {
	for l, fs := range stores {
		cells := fs.cells[:0]
		for _, c := range path {
			if c.L == l {
				cells = append(cells, geom.Pt{X: c.X, Y: c.Y})
			}
		}
		fs.cells = cells
		if len(cells) > 0 {
			fs.rects = geom.FragmentCells(fs.rects[:0], cells)
			fs.Add(net, fs.rects)
		}
	}
}

func fdiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
