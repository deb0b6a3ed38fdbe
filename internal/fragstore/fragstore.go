// Package fragstore indexes routed wire fragments (the Theorem 3
// rectangles of Section III-A, in grid-cell coordinates) per layer for
// scenario detection, with removal support for rip-up — infrastructure
// shared by the paper's router and the baseline routers.
package fragstore

import (
	"slices"
	"sort"

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

// NetRects returns the rects of a net.
func (fs *Store) NetRects(net int) []geom.Rect {
	ids := fs.byNet[net]
	out := make([]geom.Rect, 0, len(ids))
	for _, id := range ids {
		out = append(out, fs.frags[id].Rect)
	}
	return out
}

// NetIDs returns the sorted net ids with fragments.
func (fs *Store) NetIDs() []int {
	out := make([]int, 0, len(fs.byNet))
	for n := range fs.byNet {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Has reports whether the net has fragments.
func (fs *Store) Has(net int) bool { return len(fs.byNet[net]) > 0 }

// Layout assembles the oracle input for the nets in ids on this layer, in
// the order given: each net's fragments converted to nm, colored from
// colors. Nets without fragments, and skip, are left out (pass -1 to
// skip none).
func (fs *Store) Layout(g *grid.Grid, colors map[int]decomp.Color, ids []int, skip int) decomp.Layout {
	ly := decomp.Layout{Rules: g.Rules, Die: g.DieNM()}
	for _, n := range ids {
		if n == skip {
			continue
		}
		rects := fs.NetRects(n)
		if len(rects) == 0 {
			continue
		}
		nm := make([]geom.Rect, len(rects))
		for i, cr := range rects {
			nm[i] = g.CellsToNM(cr)
		}
		ly.Pats = append(ly.Pats, decomp.Pattern{Net: n, Color: colors[n], Rects: nm})
	}
	return ly
}

// Layouts assembles the oracle input of every layer: all nets with
// fragments, in id order, colored from colors[l].
func Layouts(stores []*Store, g *grid.Grid, colors []map[int]decomp.Color) []decomp.Layout {
	out := make([]decomp.Layout, len(stores))
	for l, fs := range stores {
		out[l] = fs.Layout(g, colors[l], fs.NetIDs(), -1)
	}
	return out
}

// AddPath registers a routed path's fragments with the per-layer stores:
// each layer's cells, fragmented into rects (geom.FragmentCells).
func AddPath(stores []*Store, net int, path []grid.Cell) {
	for l, cells := range CellsByLayer(path, len(stores)) {
		if len(cells) > 0 {
			stores[l].Add(net, geom.FragmentCells(cells))
		}
	}
}

// CellsByLayer splits a routed path into per-layer cell sets.
func CellsByLayer(path []grid.Cell, layers int) [][]geom.Pt {
	out := make([][]geom.Pt, layers)
	seen := make(map[grid.Cell]bool, len(path))
	for _, c := range path {
		if seen[c] {
			continue
		}
		seen[c] = true
		out[c.L] = append(out[c.L], geom.Pt{X: c.X, Y: c.Y})
	}
	return out
}

func fdiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
