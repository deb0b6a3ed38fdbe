// Package sparse implements a corridor routing graph for large
// low-congestion instances: instead of expanding the dense 3-D grid one
// track at a time, search runs on the Hanan-style product of "interesting"
// coordinates — free columns/rows bordering an obstacle (a blockage or a
// committed net), die edges, and the query's pin coordinates — with
// corridors between adjacent interesting coordinates as weighted edges.
// On a big die with few long nets and macro blockages the node count
// tracks obstacle complexity, not die area. That is the huge benchmark
// family (bench.HugeSpecs), where the corridor search routes nets that
// dense A* gives up on at its expansion budget.
//
// The graph prices corridors in the same integer half-wirelength cost
// units as internal/astar (astar.Scale applies): a planar step costs
// WL*Scale plus DirPenalty when it runs against the layer's preferred
// direction (even layers horizontal, odd vertical), a via costs Via*Scale
// plus PinVia when either via cell is a pin candidate. That model is
// exactly the uniform part of the router's dense step cost — every extra
// the dense cost model can add on top (rip-up penalty inflation, the gamma_2
// lookahead) is >= 0 — so a corridor path's cost lower-bounds the dense
// cost of any path and the router can prove dense-optimality of a snapped
// corridor path by repricing it (see internal/router's sparse adoption
// check).
//
// Completeness of the coordinate set follows from a segment-sliding
// argument: any maximal constant-x portion of a path (its vertical runs
// plus the vias linking them) slides sideways as a unit without changing
// the cost model's step counts until it is blocked by an obstacle — which
// makes its column a free column bordering an obstacle, i.e. interesting —
// or reaches a die edge or a pin coordinate. Pin-adjacent coordinates
// (px±1, py±1) are included so a cost-neutral slide never lands a via on a
// pin cell it could have stopped next to. The symmetric argument covers
// constant-y portions, so some minimum-cost path under the model lies on
// the product grid.
package sparse

import (
	"sadproute/internal/grid"
	"sadproute/internal/interval"
)

// Graph is the incrementally-maintained occupancy index a corridor search
// runs against: per-(layer,row) and per-(layer,column) free-interval sets,
// plus boundary refcounts that make the interesting-coordinate snapshot an
// O(W+H) scan instead of an O(cells) rebuild per search. It mirrors one
// grid.Grid; the owner must forward every Occupy/Release so the mirror
// stays exact. Not safe for concurrent use.
type Graph struct {
	W, H, Layers int
	rowFree      [][]interval.Set // [l][y]: free x-intervals of row y on layer l
	colFree      [][]interval.Set // [l][x]: free y-intervals of column x on layer l
	// cntX[x] counts (free cell at column x, obstacle at column x±1) pairs
	// over all rows and layers; cntX[x] > 0 makes x interesting. cntY is
	// the row-axis mirror. int32 keeps the arrays compact; a column's
	// count is bounded by 2*H*Layers, far below overflow.
	cntX, cntY []int32
}

// NewGraph builds the occupancy mirror of g: committed-net cells and
// blockages are obstacles alike (a corridor search never routes a net that
// owns cells, so passable == grid.Free exactly).
func NewGraph(g *grid.Grid) *Graph {
	sp := &Graph{
		W:      g.W,
		H:      g.H,
		Layers: g.Layers,
		cntX:   make([]int32, g.W),
		cntY:   make([]int32, g.H),
	}
	sp.rowFree = make([][]interval.Set, g.Layers)
	sp.colFree = make([][]interval.Set, g.Layers)
	for l := 0; l < g.Layers; l++ {
		sp.rowFree[l] = make([]interval.Set, g.H)
		sp.colFree[l] = make([]interval.Set, g.W)
		for y := 0; y < g.H; y++ {
			set := &sp.rowFree[l][y]
			run := -1
			for x := 0; x < g.W; x++ {
				if g.At(grid.Cell{X: x, Y: y, L: l}) == grid.Free {
					if run < 0 {
						run = x
					}
					continue
				}
				if run >= 0 {
					set.Add(interval.Iv{Lo: run, Hi: x})
					sp.cntX[x-1]++ // free run ends against an obstacle
					run = -1
				}
				if x+1 < g.W && g.At(grid.Cell{X: x + 1, Y: y, L: l}) == grid.Free {
					sp.cntX[x+1]++ // free cell bordered by this obstacle
				}
			}
			if run >= 0 {
				set.Add(interval.Iv{Lo: run, Hi: g.W})
			}
		}
		for x := 0; x < g.W; x++ {
			set := &sp.colFree[l][x]
			run := -1
			for y := 0; y < g.H; y++ {
				if g.At(grid.Cell{X: x, Y: y, L: l}) == grid.Free {
					if run < 0 {
						run = y
					}
					continue
				}
				if run >= 0 {
					set.Add(interval.Iv{Lo: run, Hi: y})
					sp.cntY[y-1]++
					run = -1
				}
				if y+1 < g.H && g.At(grid.Cell{X: x, Y: y + 1, L: l}) == grid.Free {
					sp.cntY[y+1]++
				}
			}
			if run >= 0 {
				set.Add(interval.Iv{Lo: run, Hi: g.H})
			}
		}
	}
	return sp
}

// Free reports whether the mirror considers c passable.
func (sp *Graph) Free(c grid.Cell) bool {
	return sp.rowFree[c.L][c.Y].Contains(c.X)
}

// Occupy marks a free cell as an obstacle, updating the interval sets and
// the boundary refcounts in O(1) interval operations. The caller must
// forward every grid.Occupy (and build-time Block) exactly once.
func (sp *Graph) Occupy(c grid.Cell) {
	row, col := &sp.rowFree[c.L][c.Y], &sp.colFree[c.L][c.X]
	// c stops being a free cell: retire the (c free, neighbor obstacle)
	// witnesses it contributed.
	if c.X > 0 && !row.Contains(c.X-1) {
		sp.cntX[c.X]--
	}
	if c.X+1 < sp.W && !row.Contains(c.X+1) {
		sp.cntX[c.X]--
	}
	if c.Y > 0 && !col.Contains(c.Y-1) {
		sp.cntY[c.Y]--
	}
	if c.Y+1 < sp.H && !col.Contains(c.Y+1) {
		sp.cntY[c.Y]--
	}
	row.Subtract(interval.Iv{Lo: c.X, Hi: c.X + 1})
	col.Subtract(interval.Iv{Lo: c.Y, Hi: c.Y + 1})
	// c becomes an obstacle: its still-free neighbors gain a witness.
	if c.X > 0 && row.Contains(c.X-1) {
		sp.cntX[c.X-1]++
	}
	if c.X+1 < sp.W && row.Contains(c.X+1) {
		sp.cntX[c.X+1]++
	}
	if c.Y > 0 && col.Contains(c.Y-1) {
		sp.cntY[c.Y-1]++
	}
	if c.Y+1 < sp.H && col.Contains(c.Y+1) {
		sp.cntY[c.Y+1]++
	}
}

// Release is the exact mirror of Occupy for a rip-up.
func (sp *Graph) Release(c grid.Cell) {
	row, col := &sp.rowFree[c.L][c.Y], &sp.colFree[c.L][c.X]
	// c stops being an obstacle: its free neighbors lose their witness.
	if c.X > 0 && row.Contains(c.X-1) {
		sp.cntX[c.X-1]--
	}
	if c.X+1 < sp.W && row.Contains(c.X+1) {
		sp.cntX[c.X+1]--
	}
	if c.Y > 0 && col.Contains(c.Y-1) {
		sp.cntY[c.Y-1]--
	}
	if c.Y+1 < sp.H && col.Contains(c.Y+1) {
		sp.cntY[c.Y+1]--
	}
	row.Add(interval.Iv{Lo: c.X, Hi: c.X + 1})
	col.Add(interval.Iv{Lo: c.Y, Hi: c.Y + 1})
	// c becomes free: it witnesses any obstacle neighbors.
	if c.X > 0 && !row.Contains(c.X-1) {
		sp.cntX[c.X]++
	}
	if c.X+1 < sp.W && !row.Contains(c.X+1) {
		sp.cntX[c.X]++
	}
	if c.Y > 0 && !col.Contains(c.Y-1) {
		sp.cntY[c.Y]++
	}
	if c.Y+1 < sp.H && !col.Contains(c.Y+1) {
		sp.cntY[c.Y]++
	}
}
