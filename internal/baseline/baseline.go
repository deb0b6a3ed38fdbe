// Package baseline implements three detailed routers standing in for the
// prior works the paper's Section IV evaluation compares against (see
// DESIGN.md §4 for the substitution argument):
//
//   - TrimGreedy  — the trim-process router of Gao & Pan [11]: routing and
//     decomposition are simultaneous, but net colors are fixed when routed,
//     no assistant core patterns are planned, and the trim process cannot
//     merge patterns, so odd coloring cycles are unresolvable.
//   - CutNoMerge  — the cut-process router of [16]: assistant cores are used
//     and merged with main cores (the overlay source the paper's Fig. 22
//     illustrates), but the merge technique is never applied to decompose
//     odd cycles of target patterns, and colors are fixed when routed.
//   - TrimExhaustive — the multi-pin-candidate router of Du et al. [10]:
//     every candidate pair is routed tentatively and scored with a full
//     window decomposition, giving high quality at orders-of-magnitude
//     higher runtime.
//
// All three share the repository's A* engine and grid substrate so the
// comparison isolates algorithmic differences, exactly as the paper's
// reimplementation of [10] and [16] does.
package baseline

import (
	"sort"
	"time"

	"sadproute/internal/astar"
	"sadproute/internal/decomp"
	"sadproute/internal/fragstore"
	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/netlist"
	"sadproute/internal/rules"
)

// Out reports a baseline routing run in the same shape as the paper's
// tables.
type Out struct {
	// NaiveAssists marks cut-process layouts to be decomposed with the
	// non-optimizing assist synthesis of ref. [16].
	NaiveAssists    bool
	Routed, Failed  int
	WirelengthCells int
	Vias            int
	Ripups          int
	CPU             time.Duration
	// Layouts is the colored result for oracle evaluation.
	Layouts []decomp.Layout
	// Trim selects which oracle evaluates the layouts (trim vs cut).
	Trim bool
}

// Routability returns the routed fraction in percent.
func (o *Out) Routability() float64 {
	total := o.Routed + o.Failed
	if total == 0 {
		return 100
	}
	return 100 * float64(o.Routed) / float64(total)
}

// common carries the shared baseline state.
type common struct {
	nl     *netlist.Netlist
	ds     rules.Set
	g      *grid.Grid
	eng    *astar.Engine
	frags  []*fragstore.Store
	colors []map[int]decomp.Color
	pen    []int32 // rip-up cost inflation, grid index order
	out    *Out
}

func newCommon(nl *netlist.Netlist, ds rules.Set) *common {
	c := &common{
		nl:  nl,
		ds:  ds,
		g:   nl.BuildGrid(ds),
		out: &Out{},
	}
	c.pen = make([]int32, c.g.W*c.g.H*c.g.Layers)
	c.eng = astar.Acquire(c.g)
	c.frags = make([]*fragstore.Store, nl.Layers)
	c.colors = make([]map[int]decomp.Color, nl.Layers)
	for l := 0; l < nl.Layers; l++ {
		c.frags[l] = fragstore.New()
		c.colors[l] = make(map[int]decomp.Color)
	}
	return c
}

// release returns the pooled A* engine; the common must not search again.
func (c *common) release() {
	c.eng.Release()
	c.eng = nil
}

func (c *common) search(id int, n netlist.Net, soft int) ([]grid.Cell, bool) {
	cfg := astar.Config{
		WL:           1,
		Via:          1,
		MaxExpand:    400000,
		Pen:          c.pen,
		DirPenalty:   2,
		SoftOccupied: soft,
	}
	return c.eng.Search(int32(id), n.A.Candidates, n.B.Candidates, cfg)
}

func (c *common) commit(id int, path []grid.Cell) {
	for _, cell := range path {
		c.g.Occupy(cell, int32(id))
	}
	byLayer := splitLayers(path, c.nl.Layers)
	for l, cells := range byLayer {
		if len(cells) == 0 {
			continue
		}
		c.frags[l].Add(id, geom.FragmentCells(cells))
	}
	wl, vias := pathStats(path)
	c.out.WirelengthCells += wl
	c.out.Vias += vias
}

func (c *common) ripup(id int, path []grid.Cell) {
	for _, cell := range path {
		c.g.Release(cell)
	}
	wl, vias := pathStats(path)
	c.out.WirelengthCells -= wl
	c.out.Vias -= vias
	for l := 0; l < c.nl.Layers; l++ {
		c.frags[l].RemoveNet(id)
		delete(c.colors[l], id)
	}
}

// layouts exports the colored result.
func (c *common) layouts() []decomp.Layout {
	out := make([]decomp.Layout, c.nl.Layers)
	for l := 0; l < c.nl.Layers; l++ {
		ly := decomp.Layout{Rules: c.ds, Die: c.g.DieNM()}
		for _, n := range c.frags[l].NetIDs() {
			rects := c.frags[l].NetRects(n)
			if len(rects) == 0 {
				continue
			}
			nm := make([]geom.Rect, len(rects))
			for i, cr := range rects {
				nm[i] = c.g.CellsToNM(cr)
			}
			ly.Pats = append(ly.Pats, decomp.Pattern{Net: n, Color: c.colors[l][n], Rects: nm})
		}
		out[l] = ly
	}
	return out
}

func pathStats(path []grid.Cell) (wl, vias int) {
	for i := 1; i < len(path); i++ {
		if path[i].L != path[i-1].L {
			vias++
		} else {
			wl++
		}
	}
	return wl, vias
}

func splitLayers(path []grid.Cell, layers int) [][]geom.Pt {
	out := make([][]geom.Pt, layers)
	seen := make(map[grid.Cell]bool, len(path))
	for _, cell := range path {
		if seen[cell] {
			continue
		}
		seen[cell] = true
		out[cell.L] = append(out[cell.L], geom.Pt{X: cell.X, Y: cell.Y})
	}
	return out
}

// netOrder returns net ids sorted by ascending HPWL.
func netOrder(nl *netlist.Netlist) []int {
	order := make([]int, len(nl.Nets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return nl.Nets[order[i]].HPWL() < nl.Nets[order[j]].HPWL()
	})
	return order
}
