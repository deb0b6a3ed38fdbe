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
