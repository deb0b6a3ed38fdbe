package grid

import (
	"testing"

	"sadproute/internal/geom"
	"sadproute/internal/rules"
)

func TestOccupancy(t *testing.T) {
	g := New(8, 8, 2, rules.Node10nm())
	c := Cell{X: 3, Y: 4, L: 1}
	if g.At(c) != Free {
		t.Fatal("fresh grid must be free")
	}
	g.Occupy(c, 42)
	if g.At(c) != 42 || !g.FreeOrNet(c, 42) || g.FreeOrNet(c, 7) {
		t.Fatal("occupancy semantics wrong")
	}
	g.Release(c)
	if g.At(c) != Free {
		t.Fatal("release failed")
	}
}

func TestBlockIsSticky(t *testing.T) {
	g := New(8, 8, 1, rules.Node10nm())
	g.Block(0, geom.Rect{X0: 2, Y0: 2, X1: 4, Y1: 4})
	c := Cell{X: 3, Y: 3}
	if g.At(c) != Blocked {
		t.Fatal("block failed")
	}
	g.Release(c)
	if g.At(c) != Blocked {
		t.Fatal("release must not clear blockage")
	}
	st := g.Stat()
	if st.BlockedCells != 4 || st.FreeCells != 60 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCellGeometry(t *testing.T) {
	ds := rules.Node10nm()
	g := New(8, 8, 1, ds)
	r := g.CellRect(2, 3)
	if r != (geom.Rect{X0: 80, Y0: 120, X1: 100, Y1: 140}) {
		t.Fatalf("cell rect: %v", r)
	}
	// Adjacent cells leave exactly w_spacer between metals.
	r2 := g.CellRect(3, 3)
	if r2.X0-r.X1 != ds.WSpacer {
		t.Fatalf("adjacent gap: %d", r2.X0-r.X1)
	}
	// A 3-cell horizontal run converts to one contiguous metal rect.
	run := g.CellsToNM(geom.Rect{X0: 2, Y0: 3, X1: 5, Y1: 4})
	if run != (geom.Rect{X0: 80, Y0: 120, X1: 180, Y1: 140}) {
		t.Fatalf("run rect: %v", run)
	}
}

func TestInBounds(t *testing.T) {
	g := New(4, 5, 2, rules.Node10nm())
	for _, c := range []Cell{{-1, 0, 0}, {4, 0, 0}, {0, 5, 0}, {0, 0, 2}} {
		if g.In(c) {
			t.Errorf("cell %v should be out of bounds", c)
		}
	}
	if !g.In(Cell{3, 4, 1}) {
		t.Error("corner cell must be in bounds")
	}
}

// TestIndexOrder pins the index layout per-cell planes rely on: layer-major,
// then row, then column, dense from 0, and AtIndex agreeing with At.
func TestIndexOrder(t *testing.T) {
	g := New(4, 5, 2, rules.Node10nm())
	g.Occupy(Cell{3, 4, 1}, 7)
	next := 0
	for l := 0; l < 2; l++ {
		for y := 0; y < 5; y++ {
			for x := 0; x < 4; x++ {
				c := Cell{x, y, l}
				if i := g.Index(c); i != next {
					t.Fatalf("Index(%v) = %d, want %d", c, i, next)
				}
				if g.AtIndex(next) != g.At(c) {
					t.Fatalf("AtIndex(%d) disagrees with At(%v)", next, c)
				}
				next++
			}
		}
	}
}

func TestBlockClipsToGridAndStat(t *testing.T) {
	g := New(4, 3, 2, rules.Node10nm())
	// A blockage hanging off every edge blocks only the in-grid cells.
	g.Block(1, geom.Rect{X0: -2, Y0: -1, X1: 9, Y1: 2})
	g.Occupy(Cell{X: 0, Y: 2, L: 1}, 7)
	want := Stats{Cells: 24, FreeCells: 15, BlockedCells: 8, UsedCells: 1}
	if got := g.Stat(); got != want {
		t.Fatalf("Stat() = %+v, want %+v", got, want)
	}
	if g.At(Cell{X: 3, Y: 1, L: 1}) != Blocked || g.At(Cell{X: 3, Y: 1, L: 0}) != Free {
		t.Fatal("blockage landed on the wrong cells")
	}
}

func TestDieAndCellString(t *testing.T) {
	ds := rules.Node10nm()
	g := New(5, 3, 1, ds)
	p := ds.Pitch()
	if got, want := g.DieNM(), (geom.Rect{X0: -p, Y0: -p, X1: 6 * p, Y1: 4 * p}); got != want {
		t.Fatalf("DieNM() = %v, want %v", got, want)
	}
	if got := (Cell{X: 1, Y: 2, L: 0}).String(); got != "(1,2,0)" {
		t.Fatalf("Cell.String() = %q", got)
	}
}

func TestNewRejectsEmptyGrid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 1, 1) did not panic")
		}
	}()
	New(0, 1, 1, rules.Node10nm())
}
