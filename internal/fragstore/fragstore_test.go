package fragstore

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
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

	// A query reports exactly the fragments that meet its rect, once each:
	// net 2's second fragment shares their bucket but not the rect.
	seenRects := map[geom.Rect]int{}
	fs.Query(geom.Rect{X0: 0, Y0: 0, X1: 6, Y1: 6}, func(f Frag) { seenRects[f.Rect]++ })
	want := map[geom.Rect]int{{X0: 0, Y0: 0, X1: 5, Y1: 1}: 1, {X0: 0, Y0: 3, X1: 5, Y1: 4}: 1}
	if !reflect.DeepEqual(seenRects, want) {
		t.Fatalf("query reported %v, want %v", seenRects, want)
	}

	if got := netRects(fs, 2); len(got) != 2 {
		t.Fatalf("EachNetRect: %v", got)
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

// TestQueryOrder checks Query's callback sequence against wantQuery on
// random fragments, with rip-ups whose ids later fragments reuse: the store
// never holds more fragments than were live at once.
func TestQueryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fs := New()
	var live []Frag // the live fragments, in insertion order
	peak := 0
	for net := range 40 {
		var rects []geom.Rect
		for range 1 + rng.Intn(3) {
			x, y := rng.Intn(120)-20, rng.Intn(120)-20
			rects = append(rects, geom.Rect{X0: x, Y0: y, X1: x + 1 + rng.Intn(40), Y1: y + 1 + rng.Intn(3)})
		}
		fs.Add(net, rects)
		for _, r := range rects {
			live = append(live, Frag{Net: net, Rect: r})
		}
		peak = max(peak, len(live))
		if rng.Intn(3) == 0 {
			n := rng.Intn(net + 1)
			fs.RemoveNet(n)
			live = slices.DeleteFunc(live, func(f Frag) bool { return f.Net == n })
		}
	}
	if len(fs.frags) != peak {
		t.Fatalf("store holds %d fragments, peak live %d", len(fs.frags), peak)
	}
	checkQuery(t, fs, live, geom.Rect{X0: -50, Y0: -50, X1: 200, Y1: 200})
	for range 100 {
		x, y := rng.Intn(140)-30, rng.Intn(140)-30
		checkQuery(t, fs, live, geom.Rect{X0: x, Y0: y, X1: x + 1 + rng.Intn(50), Y1: y + 1 + rng.Intn(50)})
	}
}

// FuzzFragstoreQuery runs random Add, RemoveNet and Query sequences: every
// query reports what wantQuery computes from the live fragments, and the
// store, reusing the ids of removed fragments, never holds more fragments
// than were live at once.
func FuzzFragstoreQuery(f *testing.F) {
	f.Add([]byte{0, 1, 2, 10, 10, 40, 0, 2, 0, 0, 0, 60, 60})
	f.Add([]byte{0, 1, 1, 200, 200, 90, 3, 0, 2, 3, 0, 0, 1, 1, 20, 1, 2, 0, 0, 0, 40, 40})
	f.Add([]byte{0, 0, 3, 5, 5, 70, 1, 0, 9, 9, 9, 2, 0, 0, 1, 2, 100, 250, 0, 60, 7, 1, 1, 2, 0, 0, 0, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		// rect draws a rect of up to 64 cells a side anywhere in
		// [-128, 191)^2, so it spans buckets and negative coordinates.
		rect := func() geom.Rect {
			x, y := next()-128, next()-128
			w, h := 1+next()%64, 1+next()%64
			return geom.Rect{X0: x, Y0: y, X1: x + w, Y1: y + h}
		}
		fs := New()
		var live []Frag
		peak := 0
		for len(data) > 0 {
			switch next() % 3 {
			case 0:
				net := next() % 8
				var rects []geom.Rect
				for range 1 + next()%3 {
					rects = append(rects, rect())
				}
				fs.Add(net, rects)
				for _, r := range rects {
					live = append(live, Frag{Net: net, Rect: r})
				}
				peak = max(peak, len(live))
			case 1:
				net := next() % 8
				fs.RemoveNet(net)
				live = slices.DeleteFunc(live, func(f Frag) bool { return f.Net == net })
			default:
				checkQuery(t, fs, live, rect())
			}
			if len(fs.frags) != peak {
				t.Fatalf("store holds %d fragments, peak live %d", len(fs.frags), peak)
			}
		}
	})
}

// checkQuery fails t unless fs.Query(r) reports wantQuery(live, r).
func checkQuery(t *testing.T, fs *Store, live []Frag, r geom.Rect) {
	t.Helper()
	var got []Frag
	fs.Query(r, func(f Frag) { got = append(got, f) })
	if want := wantQuery(live, r, fs.bucket); !reflect.DeepEqual(got, want) {
		t.Fatalf("query %v: got %v, want %v", r, got, want)
	}
}

// wantQuery is Query's documented callback sequence, computed from the live
// fragments in insertion order apart from the store's buckets: r's buckets
// row-major, each reporting in insertion order the fragments that meet r,
// cover the bucket and were not reported at an earlier bucket.
func wantQuery(live []Frag, r geom.Rect, bucket int) []Frag {
	cell := func(v int) int { return int(math.Floor(float64(v) / float64(bucket))) }
	var out []Frag
	done := make([]bool, len(live))
	for y := cell(r.Y0); y <= cell(r.Y1-1); y++ {
		for x := cell(r.X0); x <= cell(r.X1-1); x++ {
			for i, f := range live {
				fr := f.Rect
				if done[i] || !fr.Intersects(r) ||
					x < cell(fr.X0) || x > cell(fr.X1-1) || y < cell(fr.Y0) || y > cell(fr.Y1-1) {
					continue
				}
				done[i] = true
				out = append(out, f)
			}
		}
	}
	return out
}

// netRects collects a net's rects with EachNetRect.
func netRects(fs *Store, net int) []geom.Rect {
	var out []geom.Rect
	fs.EachNetRect(net, func(r geom.Rect) { out = append(out, r) })
	return out
}

// TestAddPathSplitsLayers: each layer's store receives the fragments of
// the path's cells on that layer, and a cell the path revisits counts
// once.
func TestAddPathSplitsLayers(t *testing.T) {
	path := []grid.Cell{
		{X: 0, Y: 0, L: 0}, {X: 1, Y: 0, L: 0}, {X: 1, Y: 0, L: 1},
		{X: 1, Y: 1, L: 1}, {X: 1, Y: 0, L: 1}, // duplicate cell
	}
	stores := []*Store{New(), New(), New()}
	AddPath(stores, 4, path)
	want := [][]geom.Rect{{{X0: 0, Y0: 0, X1: 2, Y1: 1}}, {{X0: 1, Y0: 0, X1: 2, Y1: 2}}, nil}
	for l, fs := range stores {
		if got := netRects(fs, 4); !slices.Equal(got, want[l]) {
			t.Errorf("layer %d: rects %v, want %v", l, got, want[l])
		}
	}
	if stores[2].Has(4) {
		t.Error("layer 2 holds net 4, which has no cell there")
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

	// BuildLayout assembles the same layouts into one reused buffer, and
	// once the buffer has grown it allocates nothing.
	var buf LayoutBuf
	for _, ids := range [][]int{{3, 5}, {5}, {5, 9, 3}} {
		got := stores[0].BuildLayout(&buf, g, colors[0], ids, -1)
		if want := stores[0].Layout(g, colors[0], ids, -1); !reflect.DeepEqual(got, want) {
			t.Fatalf("BuildLayout(%v) = %+v, Layout %+v", ids, got, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { stores[0].BuildLayout(&buf, g, colors[0], []int{3, 5}, -1) }); n != 0 {
		t.Errorf("a warm BuildLayout allocates %.1f objects, want 0", n)
	}
}
