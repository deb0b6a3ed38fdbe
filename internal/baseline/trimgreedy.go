package baseline

import (
	"time"

	"sadproute/internal/astar"
	"sadproute/internal/decomp"
	"sadproute/internal/fragstore"
	"sadproute/internal/geom"
	"sadproute/internal/netlist"
	"sadproute/internal/rules"
)

// TrimGreedy is the Gao–Pan-style [11] trim-process router: simultaneous
// routing and decomposition where each net's mask assignment is fixed
// greedily the moment it is routed. The trim process has no merge
// technique, so any two same-mask patterns closer than the minimum coloring
// distance conflict, and odd cycles are unresolvable; assistant core
// patterns are not planned, so second-pattern boundaries facing no core
// spacer become overlays.
type TrimGreedy struct {
	// MaxRipup bounds rip-up-and-reroute rounds per net (3, as in the
	// paper's experiments).
	MaxRipup int
}

// Run routes the netlist and returns the result with trim-process layouts.
func (t TrimGreedy) Run(nl *netlist.Netlist, ds rules.Set) *Out {
	start := time.Now() //lint:allow wallclock CPU column of the paper's tables; reporting-only, never fed into routing
	if t.MaxRipup == 0 {
		t.MaxRipup = 3
	}
	c := newCommon(nl, ds)
	for _, id := range nl.HPWLOrder() {
		t.routeNet(c, id)
	}
	c.out.Layouts = fragstore.Layouts(c.frags, c.g, c.colors)
	c.out.Trim = true
	c.out.CPU = time.Since(start) //lint:allow wallclock CPU column of the paper's tables; reporting-only
	return c.out
}

func (t TrimGreedy) routeNet(c *common, id int) {
	n := c.nl.Nets[id]
	for attempt := 0; ; attempt++ {
		path, out := c.search(id, n)
		if out != astar.Found {
			c.out.Failed++
			return
		}
		c.commit(id, path)
		// Greedy fixed coloring per layer: pick the mask with fewer
		// spacing conflicts against already-colored neighbors.
		conflicts := 0
		for l := 0; l < c.nl.Layers; l++ {
			if !c.frags[l].Has(id) {
				continue
			}
			col, cnt := greedyTrimColor(c, l, id)
			c.colors[l][id] = col
			conflicts += cnt
		}
		if conflicts == 0 {
			c.out.Routed++
			return
		}
		c.ripup(id, path)
		c.out.Ripups++
		if attempt >= t.MaxRipup {
			// The router cannot place this net without a (modeled)
			// coloring conflict: the net fails. Conflicts its model cannot
			// see (diagonal corners, same-polygon slots, line-end pairs)
			// survive into the oracle's #C count.
			c.out.Failed++
			return
		}
		for _, cell := range path {
			c.pen[c.g.Index(cell)] += 4
		}
	}
}

// greedyTrimColor counts same-mask spacing conflicts for each color choice
// of net id on layer l and returns the cheaper color.
func greedyTrimColor(c *common, l, id int) (decomp.Color, int) {
	countFor := func(col decomp.Color) int {
		cnt := 0
		seen := map[int]bool{}
		c.frags[l].EachNetRect(id, func(mr geom.Rect) {
			c.frags[l].Query(mr.Expand(2), func(f fragstore.Frag) {
				if f.Net == id || seen[f.Net] {
					return
				}
				oc, ok := c.colors[l][f.Net]
				if !ok || oc != col {
					return
				}
				if trimAdjacent(mr, f.Rect) {
					seen[f.Net] = true
					cnt++
				}
			})
		})
		return cnt
	}
	cc := countFor(decomp.Core)
	cs := countFor(decomp.Second)
	if cc <= cs {
		return decomp.Core, cc
	}
	return decomp.Second, cs
}

// trimAdjacent reports whether two cell rects are within the baselines'
// modeled minimum coloring distance: orthogonally adjacent tracks (20 nm).
// The 28.28 nm corner-diagonal case is inside d_core too, but the baseline
// models (like early LELE checkers) miss it — those conflicts survive into
// the oracle's #C count, as do same-polygon slots.
func trimAdjacent(a, b geom.Rect) bool {
	xt := cellGap(a.X0, a.X1, b.X0, b.X1)
	yt := cellGap(a.Y0, a.Y1, b.Y0, b.Y1)
	if xt == 0 && yt == 0 {
		return false // overlap: same polygon handled elsewhere
	}
	return (xt == 0 && yt == 1) || (xt == 1 && yt == 0)
}

func cellGap(a0, a1, b0, b1 int) int {
	switch {
	case b0 >= a1:
		return b0 - a1 + 1
	case a0 >= b1:
		return a0 - b1 + 1
	default:
		return 0
	}
}
