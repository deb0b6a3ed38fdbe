package fragstore

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sadproute/internal/decomp"
	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/rules"
)

func TestAddQueryRemove(t *testing.T) {
	fs := New()
	fs.Add(1, []geom.Rect{{X0: 0, Y0: 0, X1: 5, Y1: 1}})
	fs.Add(2, []geom.Rect{{X0: 0, Y0: 3, X1: 5, Y1: 4}, {X0: 10, Y0: 10, X1: 11, Y1: 15}})

	// Queries are bucket-coarse: they may report extra fragments from the
	// same bucket (callers re-check geometry) but never miss an
	// intersecting one and never repeat a fragment.
	seenRects := map[geom.Rect]int{}
	fs.Query(geom.Rect{X0: 0, Y0: 0, X1: 6, Y1: 6}, func(f Frag) { seenRects[f.Rect]++ })
	if seenRects[geom.Rect{X0: 0, Y0: 0, X1: 5, Y1: 1}] != 1 ||
		seenRects[geom.Rect{X0: 0, Y0: 3, X1: 5, Y1: 4}] != 1 {
		t.Fatalf("query missed or repeated fragments: %v", seenRects)
	}
	for r, n := range seenRects {
		if n != 1 {
			t.Fatalf("fragment %v reported %d times", r, n)
		}
	}

	if got := fs.NetRects(2); len(got) != 2 {
		t.Fatalf("NetRects: %v", got)
	}
	if ids := fs.NetIDs(); len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("NetIDs: %v", ids)
	}
	if !fs.Has(1) || fs.Has(3) {
		t.Fatal("Has wrong")
	}

	fs.RemoveNet(1)
	seen := map[int]int{}
	fs.Query(geom.Rect{X0: 0, Y0: 0, X1: 20, Y1: 20}, func(f Frag) { seen[f.Net]++ })
	if seen[1] != 0 || seen[2] != 2 {
		t.Fatalf("after removal: %v", seen)
	}
	if fs.Has(1) {
		t.Fatal("removed net still present")
	}
}

func TestQueryDedup(t *testing.T) {
	fs := New()
	// One big fragment spanning many buckets must be reported once.
	fs.Add(7, []geom.Rect{{X0: 0, Y0: 0, X1: 100, Y1: 1}})
	count := 0
	fs.Query(geom.Rect{X0: 0, Y0: 0, X1: 100, Y1: 2}, func(f Frag) { count++ })
	if count != 1 {
		t.Fatalf("dedup failed: %d", count)
	}
}

// TestQueryOrder checks Query's callback sequence against a model kept
// apart from the store's buckets, on random fragments with removals: the
// buckets row-major, each holding the fragments of nets not ripped up in
// insertion order, deduped per call by a map. The first query reports
// every fragment; the query number then wraps, and the first query after
// the wrap, number 1 again, asks for every fragment too.
func TestQueryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fs := New()
	var added []Frag // every fragment ever added, in insertion order
	removed := map[int]bool{}
	for net := range 40 {
		var rects []geom.Rect
		for range 1 + rng.Intn(3) {
			x, y := rng.Intn(120)-20, rng.Intn(120)-20
			rects = append(rects, geom.Rect{X0: x, Y0: y, X1: x + 1 + rng.Intn(40), Y1: y + 1 + rng.Intn(3)})
		}
		fs.Add(net, rects)
		for _, r := range rects {
			added = append(added, Frag{Net: net, Rect: r})
		}
		if rng.Intn(5) == 0 {
			n := rng.Intn(net + 1)
			fs.RemoveNet(n)
			removed[n] = true
		}
	}
	check := func(r geom.Rect) {
		t.Helper()
		var got, want []Frag
		fs.Query(r, func(f Frag) { got = append(got, f) })
		seen := map[int]bool{}
		x0, y0, x1, y1 := fs.keyRange(r)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				for id, f := range added {
					fx0, fy0, fx1, fy1 := fs.keyRange(f.Rect)
					if seen[id] || removed[f.Net] || x < fx0 || x > fx1 || y < fy0 || y > fy1 {
						continue
					}
					seen[id] = true
					want = append(want, f)
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d of %v: got %v, want %v", fs.query, r, got, want)
		}
	}
	all := geom.Rect{X0: -50, Y0: -50, X1: 200, Y1: 200}
	check(all)
	fs.query = math.MaxUint32 - 1
	for k := range 100 {
		x, y := rng.Intn(140)-30, rng.Intn(140)-30
		r := geom.Rect{X0: x, Y0: y, X1: x + 1 + rng.Intn(50), Y1: y + 1 + rng.Intn(50)}
		if k == 1 {
			r = all
		}
		check(r)
	}
}

func TestCellsByLayer(t *testing.T) {
	path := []grid.Cell{
		{X: 0, Y: 0, L: 0}, {X: 1, Y: 0, L: 0}, {X: 1, Y: 0, L: 1},
		{X: 1, Y: 1, L: 1}, {X: 1, Y: 0, L: 1}, // duplicate cell
	}
	by := CellsByLayer(path, 3)
	if len(by[0]) != 2 || len(by[1]) != 2 || len(by[2]) != 0 {
		t.Fatalf("split: %v", by)
	}
}

// TestAddPathAndLayouts registers two routed paths and converts the stores
// back into oracle inputs: per-layer fragments in nm with the net's color,
// nets in the order given, skip and fragment-less nets left out.
func TestAddPathAndLayouts(t *testing.T) {
	g := grid.New(8, 8, 2, rules.Node10nm())
	stores := []*Store{New(), New()}
	// Net 3: two cells on layer 0, a via, two cells on layer 1.
	AddPath(stores, 3, []grid.Cell{{X: 0, Y: 0, L: 0}, {X: 1, Y: 0, L: 0}, {X: 1, Y: 0, L: 1}, {X: 1, Y: 1, L: 1}})
	AddPath(stores, 5, []grid.Cell{{X: 4, Y: 4, L: 0}, {X: 5, Y: 4, L: 0}})
	colors := []map[int]decomp.Color{{3: decomp.Second, 5: decomp.Core}, {3: decomp.Core}}

	lys := Layouts(stores, g, colors)
	if len(lys) != 2 || len(lys[0].Pats) != 2 || len(lys[1].Pats) != 1 {
		t.Fatalf("layouts: %+v", lys)
	}
	if lys[0].Die != g.DieNM() || lys[0].Rules != g.Rules {
		t.Fatalf("layout die/rules not the grid's: %+v", lys[0].Die)
	}
	p := lys[0].Pats[0]
	if p.Net != 3 || p.Color != decomp.Second || len(p.Rects) != 1 ||
		p.Rects[0] != g.CellsToNM(geom.Rect{X0: 0, Y0: 0, X1: 2, Y1: 1}) {
		t.Fatalf("layer 0 pattern of net 3: %+v", p)
	}
	if p := lys[1].Pats[0]; p.Net != 3 || p.Color != decomp.Core ||
		p.Rects[0] != g.CellsToNM(geom.Rect{X0: 1, Y0: 0, X1: 2, Y1: 2}) {
		t.Fatalf("layer 1 pattern of net 3: %+v", p)
	}

	if ly := stores[0].Layout(g, colors[0], []int{5, 3}, 3); len(ly.Pats) != 1 || ly.Pats[0].Net != 5 {
		t.Fatalf("skip kept net 3: %+v", ly.Pats)
	}
	if ly := stores[0].Layout(g, colors[0], []int{5, 9, 3}, -1); len(ly.Pats) != 2 || ly.Pats[0].Net != 5 || ly.Pats[1].Net != 3 {
		t.Fatalf("ids order or fragment-less net 9: %+v", ly.Pats)
	}
}
