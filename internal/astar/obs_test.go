package astar

import (
	"math/rand"
	"testing"

	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/obs"
)

// TestSearchStats asserts the per-search statistics are self-consistent and
// flushed to an attached recorder.
func TestSearchStats(t *testing.T) {
	g := mk(16, 16, 2)
	e := New(g)
	rec := obs.New()
	e.Rec = rec
	if _, out := e.Search(0, []grid.Cell{{X: 0, Y: 8}}, []grid.Cell{{X: 15, Y: 8}}, Config{WL: 1, Via: 1}); out != Found {
		t.Fatal("no path on empty grid")
	}
	if e.Expand == 0 || e.Pushes == 0 || e.Pops == 0 || e.HeapPeak == 0 {
		t.Fatalf("stats not tracked: expand=%d pushes=%d pops=%d peak=%d",
			e.Expand, e.Pushes, e.Pops, e.HeapPeak)
	}
	if e.Pops > e.Pushes {
		t.Errorf("pops %d exceed pushes %d", e.Pops, e.Pushes)
	}
	if e.HeapPeak > e.Pushes {
		t.Errorf("heap peak %d exceeds pushes %d", e.HeapPeak, e.Pushes)
	}
	s := rec.Snapshot()
	if s.Counter(obs.CtrAstarSearches) != 1 {
		t.Errorf("searches = %d, want 1", s.Counter(obs.CtrAstarSearches))
	}
	if s.Counter(obs.CtrAstarExpanded) != int64(e.Expand) {
		t.Errorf("flushed expanded %d != engine %d", s.Counter(obs.CtrAstarExpanded), e.Expand)
	}
	if s.Gauge(obs.GaugeAstarHeapPeak) != int64(e.HeapPeak) {
		t.Errorf("flushed heap peak %d != engine %d", s.Gauge(obs.GaugeAstarHeapPeak), e.HeapPeak)
	}

	// A second search accumulates counters but the gauge tracks the max.
	e.Search(0, []grid.Cell{{X: 0, Y: 0}}, []grid.Cell{{X: 3, Y: 0}}, Config{WL: 1, Via: 1})
	s = rec.Snapshot()
	if s.Counter(obs.CtrAstarSearches) != 2 {
		t.Errorf("searches = %d, want 2", s.Counter(obs.CtrAstarSearches))
	}

	// A search whose only target belongs to another net ends unexpanded
	// and still counts as a search.
	g.Occupy(grid.Cell{X: 15, Y: 8}, 9)
	if _, out := e.Search(0, []grid.Cell{{X: 0, Y: 8}}, []grid.Cell{{X: 15, Y: 8}}, Config{WL: 1, Via: 1}); out != NoPath || e.Expand != 0 {
		t.Errorf("foreign target: outcome %v, expand=%d, want NoPath after 0 expansions", out, e.Expand)
	}
	if s = rec.Snapshot(); s.Counter(obs.CtrAstarSearches) != 3 {
		t.Errorf("searches = %d, want 3", s.Counter(obs.CtrAstarSearches))
	}
}

// TestEmptySearchResetsStats: a search with no sources or no targets ends
// NoPath with every statistic zero, not the last search's, and is flushed
// to the recorder as a search of its own.
func TestEmptySearchResetsStats(t *testing.T) {
	e := New(mk(16, 16, 2))
	rec := obs.New()
	e.Rec = rec
	src, tgt := []grid.Cell{{X: 0, Y: 8}}, []grid.Cell{{X: 15, Y: 8}}
	cfg := Config{WL: 1, Via: 1}
	if _, out := e.Search(0, src, tgt, cfg); out != Found || e.Expand == 0 {
		t.Fatalf("real search: outcome %v after %d expansions", out, e.Expand)
	}
	s := rec.Snapshot()
	expanded := s.Counter(obs.CtrAstarExpanded)
	for _, q := range [][2][]grid.Cell{{src, nil}, {nil, tgt}} {
		if path, out := e.Search(0, q[0], q[1], cfg); out != NoPath || path != nil {
			t.Fatalf("%v -> %v: outcome %v, path %v; want NoPath", q[0], q[1], out, path)
		}
		if e.Expand != 0 || e.Pushes != 0 || e.Pops != 0 || e.HeapPeak != 0 {
			t.Errorf("%v -> %v: stats expand=%d pushes=%d pops=%d peak=%d, want all 0",
				q[0], q[1], e.Expand, e.Pushes, e.Pops, e.HeapPeak)
		}
	}
	s = rec.Snapshot()
	if s.Counter(obs.CtrAstarSearches) != 3 || s.Counter(obs.CtrAstarExpanded) != expanded {
		t.Errorf("recorder: %d searches, %d expanded; want 3 and the real search's %d",
			s.Counter(obs.CtrAstarSearches), s.Counter(obs.CtrAstarExpanded), expanded)
	}
}

// benchGrid builds a 64x64x3 grid with scattered blockages — dense enough
// that the search does real work.
func benchGrid() *grid.Grid {
	g := mk(64, 64, 3)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 60; i++ {
		x, y := rng.Intn(60), rng.Intn(60)
		g.Block(rng.Intn(3), geom.Rect{X0: x, Y0: y, X1: x + 1 + rng.Intn(4), Y1: y + 1 + rng.Intn(4)})
	}
	return g
}

// benchQuery is the benchmarks' search on benchGrid: corner to corner,
// under the router's weights and an all-zero penalty plane.
func benchQuery() (g *grid.Grid, cfg Config, src, dst []grid.Cell) {
	g = benchGrid()
	cfg = Config{WL: 1, Via: 1, Pen: make([]int32, g.W*g.H*g.Layers), PinVia: 12, Gamma2: 3, DirPenalty: 2}
	return g, cfg, []grid.Cell{{X: 1, Y: 1}}, []grid.Cell{{X: 62, Y: 62, L: 2}}
}

func benchSearch(b *testing.B, rec *obs.Recorder) {
	g, cfg, src, dst := benchQuery()
	e := New(g)
	e.Rec = rec
	benchLoop(b, e, src, dst, cfg)
}

// benchLoop times e's search from src to dst under cfg.
func benchLoop(b *testing.B, e *Engine, src, dst []grid.Cell, cfg Config) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, out := e.Search(0, src, dst, cfg); out != Found {
			b.Fatal("no path")
		}
	}
	b.ReportMetric(float64(e.Expand), "expanded/op")
}

// BenchmarkSearchBare is the un-instrumented baseline: no recorder
// attached, so the inner loop pays only the plain field increments.
// Compare against BenchmarkSearchInstrumented for the ISSUE's 2% overhead
// acceptance criterion.
func BenchmarkSearchBare(b *testing.B) { benchSearch(b, nil) }

// BenchmarkSearchInstrumented attaches a live recorder: the same search
// plus one atomic flush per Search call.
func BenchmarkSearchInstrumented(b *testing.B) { benchSearch(b, obs.New()) }

// BenchmarkSearchPenalizedTarget is a reroute: the benchmark search again
// after a failed attempt inflated its path by 2*Scale and its pins by
// 16*Scale, as the router inflates a ripped-up path and its hot cells. The
// entry bound charges the target's penalty from the first expansion.
func BenchmarkSearchPenalizedTarget(b *testing.B) {
	g, cfg, src, dst := benchQuery()
	e := New(g)
	path, out := e.Search(0, src, dst, cfg)
	if out != Found {
		b.Fatal("no path")
	}
	for _, c := range path {
		cfg.Pen[g.Index(c)] += 2 * Scale
	}
	for _, c := range [...]grid.Cell{src[0], dst[0]} {
		cfg.Pen[g.Index(c)] += 16 * Scale
	}
	benchLoop(b, e, src, dst, cfg)
}

// BenchmarkSearchHugeDie is one long net on a die the size of Huge2's,
// 1200×1200 tracks on 3 layers, whose straight line meets a full-stack
// macro slab mid-face: the search floods the face before the detour pays
// off. Its per-cell planes (35 MB of search records, 17 MB each of
// occupancy and penalties) are far larger than the cache, unlike
// benchGrid's, so the grid layout shows in its ns per expansion.
func BenchmarkSearchHugeDie(b *testing.B) {
	g := mk(1200, 1200, 3)
	for l := range g.Layers {
		g.Block(l, geom.Rect{X0: 560, Y0: 250, X1: 610, Y1: 950})
		g.Block(l, geom.Rect{X0: 200, Y0: 900, X1: 500, Y1: 940})
		g.Block(l, geom.Rect{X0: 750, Y0: 200, X1: 790, Y1: 520})
	}
	cfg := Config{WL: 1, Via: 1, Pen: make([]int32, g.Len()), PinVia: 12, Gamma2: 3, DirPenalty: 2}
	src, dst := []grid.Cell{{X: 100, Y: 600}}, []grid.Cell{{X: 1100, Y: 620}}
	e := New(g)
	benchLoop(b, e, src, dst, cfg)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*e.Expand), "ns/expansion")
}
