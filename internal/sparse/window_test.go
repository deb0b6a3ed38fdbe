package sparse

import (
	"testing"

	"sadproute/internal/astar"
	"sadproute/internal/geom"
	"sadproute/internal/grid"
)

// blockAll blocks a rect on every layer — a full-stack obstacle the search
// cannot hop via another layer.
func blockAll(g *grid.Grid, r geom.Rect) {
	for l := 0; l < g.Layers; l++ {
		g.Block(l, r)
	}
}

// TestWindowEscalatesPastBlockedWindow walls the pins apart with a
// full-stack wall whose only gap lies 71 tracks from them. The full-die
// search must find the detour through the gap and match the dense optimum.
func TestWindowEscalatesPastBlockedWindow(t *testing.T) {
	g := mk(400, 200, 2)
	// Wall at x=210 from y=30 down to the die edge; the nearest gap row,
	// y=29, is 71 tracks from the pins.
	blockAll(g, geom.Rect{X0: 210, Y0: 30, X1: 211, Y1: 200})
	src := []grid.Cell{{X: 200, Y: 100}}
	tgt := []grid.Cell{{X: 220, Y: 100}}
	path, _, out := searchBoth(t, g, src, tgt, baseCfg)
	if out != astar.Found {
		t.Fatalf("outcome %v, want Found through the far gap", out)
	}
	for _, c := range path {
		if c.X == 210 && c.Y >= 30 {
			t.Fatalf("path crosses the wall at %v", c)
		}
	}
}

// TestWindowCertRejectsEdgeHuggingDetour leaves one gap that starts 64
// tracks from the pins and runs to the die edge: the cheapest detour hugs
// its near edge, paying direction penalties and vias on top of the base
// detour. The full-die result must match the dense optimum.
func TestWindowCertRejectsEdgeHuggingDetour(t *testing.T) {
	g := mk(400, 200, 2)
	// The wall y<164 leaves the gap rows 164..199, the first of them 64
	// tracks from the pins.
	blockAll(g, geom.Rect{X0: 210, Y0: 0, X1: 211, Y1: 164})
	src := []grid.Cell{{X: 200, Y: 100}}
	tgt := []grid.Cell{{X: 220, Y: 100}}
	if _, _, out := searchBoth(t, g, src, tgt, baseCfg); out != astar.Found {
		t.Fatalf("outcome %v, want Found", out)
	}
}

// TestWindowedNoPathIsAuthoritative pins that the full-die NoPath verdict
// is authoritative: a target walled in on every layer of a large die must
// come back NoPath (not Aborted, not a false Found), agreeing with the
// dense engine.
func TestWindowedNoPathIsAuthoritative(t *testing.T) {
	g := mk(400, 400, 2)
	blockAll(g, geom.Rect{X0: 340, Y0: 340, X1: 361, Y1: 341}) // north
	blockAll(g, geom.Rect{X0: 340, Y0: 360, X1: 361, Y1: 361}) // south
	blockAll(g, geom.Rect{X0: 340, Y0: 340, X1: 341, Y1: 361}) // west
	blockAll(g, geom.Rect{X0: 360, Y0: 340, X1: 361, Y1: 361}) // east
	src := []grid.Cell{{X: 50, Y: 50}}
	tgt := []grid.Cell{{X: 350, Y: 350}}
	if _, _, out := searchBoth(t, g, src, tgt, baseCfg); out != astar.NoPath {
		t.Fatalf("outcome %v, want NoPath", out)
	}
}

// TestWindowMaxExpandAccruesAcrossTiers pins the expansion budget of one
// Search: a budget too small for the detour aborts the search, and the
// count stops at the pop that trips it.
func TestWindowMaxExpandAccruesAcrossTiers(t *testing.T) {
	g := mk(400, 200, 2)
	blockAll(g, geom.Rect{X0: 210, Y0: 30, X1: 211, Y1: 200})
	src := []grid.Cell{{X: 200, Y: 100}}
	tgt := []grid.Cell{{X: 220, Y: 100}}
	sp := NewGraph(g)
	e := NewEngine(sp)
	cfg := baseCfg
	cfg.MaxExpand = 4
	if _, _, out := e.Search(src, tgt, cfg); out != astar.Aborted {
		t.Fatalf("outcome %v, want Aborted under a 4-expansion budget", out)
	}
	if e.Expand > 5 { // the pop that trips the budget is itself counted
		t.Fatalf("expanded %d nodes past the budget", e.Expand)
	}
}
