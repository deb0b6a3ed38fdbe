package astar

import (
	"testing"

	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/rules"
)

func allocGrid() (*grid.Grid, Config, []grid.Cell, []grid.Cell) {
	g := grid.New(64, 64, 3, rules.Node10nm())
	g.Block(0, geom.Rect{X0: 20, Y0: 10, X1: 44, Y1: 14})
	src := []grid.Cell{{X: 2, Y: 2, L: 0}}
	tgt := []grid.Cell{{X: 60, Y: 58, L: 0}}
	pen := make([]int32, g.W*g.H*g.Layers)
	pen[g.Index(grid.Cell{X: 30, Y: 30, L: 1})] = 8
	return g, Config{WL: 1, Via: 2, Pen: pen, PinVia: 12, Gamma2: 3, DirPenalty: 2}, src, tgt
}

// TestSearchAllocsSteadyState pins the engine's allocation discipline: a
// warmed engine allocates only the returned path (its backtrace slice),
// nothing per node and no closure captures, and its open list reuses the
// blocks a search leaves queued, so the block arena stays at its warm-up
// size. The bound is generous (the backtrace slice grows by doubling) but
// fails if Search regresses to per-call closure or map allocations.
func TestSearchAllocsSteadyState(t *testing.T) {
	g, cfg, src, tgt := allocGrid()
	e := New(g)
	if _, out := e.Search(-1, src, tgt, cfg); out != Found { // warm arrays and queue
		t.Fatal("no path on warm-up")
	}
	blocks := len(e.queue.blocks)
	avg := testing.AllocsPerRun(100, func() {
		if _, out := e.Search(-1, src, tgt, cfg); out != Found {
			t.Fatal("no path")
		}
	})
	// Path backtrace: one slice, grown by doubling — ~8 allocs for a
	// 120-cell path. Anything above 16 means a per-call regression.
	if avg > 16 {
		t.Fatalf("Search allocates %.1f objects/op in steady state (want <= 16: only the returned path)", avg)
	}
	if len(e.queue.blocks) != blocks {
		t.Fatalf("open-list block arena grew from %d to %d blocks over repeated searches", blocks, len(e.queue.blocks))
	}
}

// BenchmarkSearch is the allocs/op regression benchmark for the satellite:
// run with -benchmem; steady state must stay at path-only allocations.
func BenchmarkSearch(b *testing.B) {
	g, cfg, src, tgt := allocGrid()
	e := New(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, out := e.Search(-1, src, tgt, cfg); out != Found {
			b.Fatal("no path")
		}
	}
}
