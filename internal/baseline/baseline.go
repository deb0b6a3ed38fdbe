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
	"time"

	"sadproute/internal/astar"
	"sadproute/internal/decomp"
	"sadproute/internal/fragstore"
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

// maxRipup bounds each baseline's rip-up-and-reroute rounds per net (3, as
// in the paper's experiments).
const maxRipup = 3

// common carries the shared baseline state.
type common struct {
	nl     *netlist.Netlist
	g      *grid.Grid
	eng    *astar.Engine
	frags  []*fragstore.Store
	colors [][]decomp.Color // per layer, indexed by net; Unassigned: no pattern
	pen    []int32          // rip-up cost inflation, grid index order
	out    *Out
}

func newCommon(nl *netlist.Netlist, ds rules.Set) *common {
	c := &common{
		nl:  nl,
		g:   nl.BuildGrid(ds),
		out: &Out{},
	}
	c.pen = make([]int32, c.g.Len())
	c.eng = astar.New(c.g)
	c.frags = make([]*fragstore.Store, nl.Layers)
	c.colors = make([][]decomp.Color, nl.Layers)
	for l := 0; l < nl.Layers; l++ {
		c.frags[l] = fragstore.New()
		c.colors[l] = make([]decomp.Color, len(nl.Nets))
	}
	return c
}

func (c *common) search(id int, n netlist.Net) ([]grid.Cell, astar.Outcome) {
	cfg := astar.Config{
		WL:         1,
		Via:        1,
		MaxExpand:  400000,
		Pen:        c.pen,
		DirPenalty: 2,
	}
	return c.eng.Search(int32(id), n.A.Candidates, n.B.Candidates, cfg)
}

func (c *common) commit(id int, path []grid.Cell) {
	for _, cell := range path {
		c.g.Occupy(cell, int32(id))
	}
	fragstore.AddPath(c.frags, id, path)
	wl, vias := grid.PathLen(path)
	c.out.WirelengthCells += wl
	c.out.Vias += vias
}

func (c *common) ripup(id int, path []grid.Cell) {
	for _, cell := range path {
		c.g.Release(cell)
	}
	wl, vias := grid.PathLen(path)
	c.out.WirelengthCells -= wl
	c.out.Vias -= vias
	for l := 0; l < c.nl.Layers; l++ {
		c.frags[l].RemoveNet(id)
		c.colors[l][id] = decomp.Unassigned
	}
}
