// Package grid implements the multi-layer grid-based routing plane of the
// paper's problem formulation (Section II, routing model shared by the
// Section III-E router): a W x H track grid per routing layer, cell
// occupancy by net, routing blockages, and vias between vertically adjacent
// cells of neighboring layers.
//
// Coordinates are track indices (cells); the physical metal rectangle of a
// cell is derived from the design-rule pitch by Set.CellRect.
package grid

import (
	"fmt"

	"sadproute/internal/geom"
	"sadproute/internal/rules"
)

// Cell addresses one routing-grid cell on a layer.
type Cell struct {
	X, Y, L int
}

func (c Cell) String() string { return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.L) }

// Occupancy states below zero; values >= 0 are net ids.
const (
	Free    int32 = -1
	Blocked int32 = -2
)

// Grid is the routing plane. Create with New.
type Grid struct {
	W, H, Layers int
	Rules        rules.Set
	occ          []int32
}

// New returns an empty grid of W x H tracks on the given number of layers.
func New(w, h, layers int, ds rules.Set) *Grid {
	if w <= 0 || h <= 0 || layers <= 0 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%dx%d", w, h, layers))
	}
	g := &Grid{W: w, H: h, Layers: layers, Rules: ds}
	g.occ = make([]int32, w*h*layers)
	for i := range g.occ {
		g.occ[i] = Free
	}
	return g
}

// In reports whether c lies inside the grid.
func (g *Grid) In(c Cell) bool {
	return c.X >= 0 && c.X < g.W && c.Y >= 0 && c.Y < g.H && c.L >= 0 && c.L < g.Layers
}

func (g *Grid) idx(c Cell) int { return (c.L*g.H+c.Y)*g.W + c.X }

// Index returns c's position in grid index order (layer-major, then row,
// then column): the layout of per-cell planes indexed alongside the grid,
// such as the router's rip-up penalty plane.
func (g *Grid) Index(c Cell) int { return g.idx(c) }

// At returns the occupancy of c: Free, Blocked, or a net id.
func (g *Grid) At(c Cell) int32 { return g.occ[g.idx(c)] }

// AtIndex is At for a cell given by its Index.
func (g *Grid) AtIndex(i int) int32 { return g.occ[i] }

// Occupy assigns cell c to net id (no-op checks are the caller's job).
func (g *Grid) Occupy(c Cell, id int32) { g.occ[g.idx(c)] = id }

// Release frees cell c unless it is blocked.
func (g *Grid) Release(c Cell) {
	if i := g.idx(c); g.occ[i] != Blocked {
		g.occ[i] = Free
	}
}

// Block marks a rectangle of cells on layer l as routing blockage.
func (g *Grid) Block(l int, r geom.Rect) {
	for y := maxi(0, r.Y0); y < mini(g.H, r.Y1); y++ {
		for x := maxi(0, r.X0); x < mini(g.W, r.X1); x++ {
			g.occ[g.idx(Cell{x, y, l})] = Blocked
		}
	}
}

// FreeOrNet reports whether c is free or already owned by net id (vias and
// reuse of a net's own cells are legal).
func (g *Grid) FreeOrNet(c Cell, id int32) bool {
	v := g.At(c)
	return v == Free || v == id
}

// CellRect returns the metal rectangle of cell c in nm.
func (g *Grid) CellRect(x, y int) geom.Rect {
	p, w := g.Rules.Pitch(), g.Rules.WLine
	return geom.Rect{X0: x * p, Y0: y * p, X1: x*p + w, Y1: y*p + w}
}

// CellsToNM converts a cell-coordinate rectangle (half-open, from
// geom.FragmentCells) to the metal rectangle it occupies in nm.
func (g *Grid) CellsToNM(r geom.Rect) geom.Rect {
	p, w := g.Rules.Pitch(), g.Rules.WLine
	return geom.Rect{
		X0: r.X0 * p, Y0: r.Y0 * p,
		X1: (r.X1-1)*p + w, Y1: (r.Y1-1)*p + w,
	}
}

// DieNM returns the die rectangle in nm.
func (g *Grid) DieNM() geom.Rect {
	p := g.Rules.Pitch()
	return geom.Rect{X0: -p, Y0: -p, X1: g.W*p + p, Y1: g.H*p + p}
}

// Stats summarizes grid occupancy.
type Stats struct {
	Cells, FreeCells, BlockedCells, UsedCells int
}

// Stat computes occupancy statistics.
func (g *Grid) Stat() Stats {
	s := Stats{Cells: len(g.occ)}
	for _, v := range g.occ {
		switch v {
		case Free:
			s.FreeCells++
		case Blocked:
			s.BlockedCells++
		default:
			s.UsedCells++
		}
	}
	return s
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func mini(a, b int) int {
	if a < b {
		return a
	}
	return b
}
