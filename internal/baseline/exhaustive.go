package baseline

import (
	"context"
	"sort"
	"time"

	"sadproute/internal/astar"
	"sadproute/internal/decomp"
	"sadproute/internal/fragstore"
	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/netlist"
	"sadproute/internal/rules"
	"sadproute/internal/scenario"
)

// TrimExhaustive is the Du-et-al.-style [10] multi-pin-candidate trim
// router: for every net it tentatively routes EVERY pin-candidate pair,
// scores each tentative path with a full window decomposition of the trim
// oracle under both mask choices, and commits the best combination. The
// exhaustive candidate sweep with oracle-grade scoring is what gives [10]
// its enormous runtime in the paper's Table IV (> 100000 s on the larger
// benchmarks).
type TrimExhaustive struct {
	MaxRipup int
	// Budget aborts the run when exceeded (the paper reports "NA" for
	// Test9/Test10 after 100000 s); zero means unlimited.
	Budget time.Duration
}

// Run routes the netlist; returns nil when the time budget was exceeded
// (the paper's "NA" entries). It is RunCtx under a context derived from
// Budget.
func (t TrimExhaustive) Run(nl *netlist.Netlist, ds rules.Set) *Out {
	ctx := context.Background()
	if t.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t.Budget)
		defer cancel()
	}
	return t.RunCtx(ctx, nl, ds)
}

// RunCtx routes the netlist under ctx and returns nil as soon as ctx is
// canceled or its deadline passes — the paper's "NA" entries. Cancellation
// is checked per candidate pair inside the exhaustive sweep, not only per
// net, so even the multi-hour nets of the paper-scale Table IV abort
// promptly. The bench harness uses this for per-cell budget cancellation.
func (t TrimExhaustive) RunCtx(ctx context.Context, nl *netlist.Netlist, ds rules.Set) *Out {
	start := time.Now() //lint:allow wallclock CPU column of the paper's tables; reporting-only, never fed into routing
	if t.MaxRipup == 0 {
		t.MaxRipup = 3
	}
	c := newCommon(nl, ds)
	for _, id := range nl.HPWLOrder() {
		if !t.routeNet(ctx, c, id) {
			return nil
		}
	}
	c.out.Layouts = fragstore.Layouts(c.frags, c.g, c.colors)
	c.out.Trim = true
	c.out.CPU = time.Since(start) //lint:allow wallclock CPU column of the paper's tables; reporting-only
	return c.out
}

// routeNet routes one net; false means the context was canceled mid-sweep.
func (t TrimExhaustive) routeNet(ctx context.Context, c *common, id int) bool {
	n := c.nl.Nets[id]
	for attempt := 0; ; attempt++ {
		path, cols, score, ok := t.bestCandidate(ctx, c, id, n)
		if !ok {
			return false
		}
		if path == nil {
			c.out.Failed++
			return true
		}
		c.commit(id, path)
		for l, col := range cols {
			if c.frags[l].Has(id) {
				c.colors[l][id] = col
			}
		}
		if score == 0 || attempt >= t.MaxRipup {
			c.out.Routed++
			return true
		}
		c.ripup(id, path)
		c.out.Ripups++
		for _, cell := range path {
			c.pen[c.g.Index(cell)] += 4
		}
	}
}

// bestCandidate sweeps every pin-candidate pair, tentatively routing and
// oracle-scoring each, and returns the cheapest path with its per-layer
// colors and conflict score. ok is false when ctx was canceled during the
// sweep (the partial best is discarded).
func (t TrimExhaustive) bestCandidate(ctx context.Context, c *common, id int, n netlist.Net) ([]grid.Cell, []decomp.Color, int, bool) {
	var bestPath []grid.Cell
	var bestCols []decomp.Color
	bestScore, bestLen := 1<<40, 1<<40
	for _, a := range n.A.Candidates {
		for _, b := range n.B.Candidates {
			if ctx.Err() != nil {
				return nil, nil, 0, false
			}
			sub := netlist.Net{ID: id, A: netlist.Pin{Candidates: []grid.Cell{a}}, B: netlist.Pin{Candidates: []grid.Cell{b}}}
			path, out := c.search(id, sub)
			if out != astar.Found {
				continue
			}
			cols, score := t.scorePath(c, id, path)
			if score < bestScore || (score == bestScore && len(path) < bestLen) {
				bestScore, bestLen = score, len(path)
				bestPath, bestCols = path, cols
			}
		}
	}
	return bestPath, bestCols, bestScore, true
}

// scorePath tentatively commits the path, decomposes a window around it
// with the trim oracle under both mask choices per layer, and returns the
// best colors and the summed conflict-plus-hard-overlay count.
func (t TrimExhaustive) scorePath(c *common, id int, path []grid.Cell) ([]decomp.Color, int) {
	c.commit(id, path)
	defer c.ripup(id, path)
	cols := make([]decomp.Color, c.nl.Layers)
	total := 0
	for l := 0; l < c.nl.Layers; l++ {
		if !c.frags[l].Has(id) {
			continue
		}
		best, bestCol := 1<<40, decomp.Core
		for _, col := range [2]decomp.Color{decomp.Core, decomp.Second} {
			c.colors[l][id] = col
			res := decomp.DecomposeTrim(t.window(c, l, id))
			bad := len(res.Conflicts) + res.HardOverlays + len(res.Violations)
			if bad < best {
				best, bestCol = bad, col
			}
		}
		delete(c.colors[l], id)
		cols[l] = bestCol
		total += best
	}
	return cols, total
}

// window assembles the trim-oracle input around the net's fragments: the
// nets with a fragment meeting its bounding box expanded by scenario.Reach.
func (t TrimExhaustive) window(c *common, l, id int) decomp.Layout {
	var bbox geom.Rect
	c.frags[l].EachNetRect(id, func(r geom.Rect) { bbox = bbox.Union(r) })
	in := map[int]bool{id: true}
	c.frags[l].Query(bbox.Expand(scenario.Reach), func(f fragstore.Frag) { in[f.Net] = true })
	ids := make([]int, 0, len(in))
	for n := range in {
		ids = append(ids, n)
	}
	sort.Ints(ids)
	return c.frags[l].Layout(c.g, c.colors[l], ids, -1)
}
