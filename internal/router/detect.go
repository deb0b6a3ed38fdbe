package router

import (
	"os"
	"sort"

	"sadproute/internal/colorflip"
	"sadproute/internal/decomp"
	"sadproute/internal/fragstore"
	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/obs"
)

// debugWindowEnv is the documented fallback for Options.DebugWindow (see
// README "Verification & static analysis").
var debugWindowEnv = os.Getenv("SADP_DEBUG_WINDOW") != "" //lint:allow getenv documented fallback for Options.DebugWindow, see README

// windowResolve implements the paper's per-net cut conflict check scheme
// (Section III-D) with color-based resolution: decompose a local window
// around the newly routed (and colored) net with the oracle; when the net
// introduced a new cut conflict or violation, try to clear it by re-running
// the component flipping DP with this net's color forced to each mask in
// turn — accepting and locking the first component recoloring whose window
// decomposes cleanly. Only when no coloring clears the window does the net
// get ripped up; hot returns the cells implicated, for targeted rip-up
// cost inflation.
func (st *state) windowResolve(id int) (bad bool, hot []grid.Cell) {
	for l := 0; l < st.nl.Layers; l++ {
		mine := st.frags[l].NetRects(id)
		if len(mine) == 0 {
			continue
		}
		st.rec.Inc(obs.CtrWindowChecks)
		st.rec.NetWindowCheck(id)
		var bbox geom.Rect
		for _, r := range mine {
			bbox = bbox.Union(r)
		}
		window := bbox.Expand(3)

		if st.winNets == nil {
			st.winNets = make(map[int]bool)
		} else {
			clear(st.winNets)
		}
		netsIn := st.winNets
		netsIn[id] = true
		st.frags[l].Query(window, func(f fragstore.Frag) { netsIn[f.Net] = true })
		ids := st.winIDs[:0]
		for n := range netsIn {
			ids = append(ids, n)
		}
		sort.Ints(ids)
		st.winIDs = ids
		st.rec.Observe(obs.HistWindowNets, int64(len(ids)))

		// Baseline: the window without the new net.
		base := st.decompLayer(l, st.windowLayout(l, ids, id))
		baseBad := windowBadness(base)

		// Current coloring.
		cur := st.decompLayer(l, st.windowLayout(l, ids, -1))
		curBad := windowBadness(cur)
		if curBad <= baseBad {
			if st.rec.Tracing() {
				st.rec.Trace("window_check", obs.I("net", id), obs.I("layer", l),
					obs.I("base", baseBad), obs.I("cur", curBad), obs.S("outcome", "clean"))
			}
			continue
		}

		// The net made things worse: try to resolve by recoloring its
		// component with the net's color forced each way.
		comp := st.ocgs[l].Component(id)
		saved := make(map[int]decomp.Color, len(comp))
		for _, n := range comp {
			saved[n] = st.colors[l][n]
		}
		savedLock, hadLock := st.locks[l][id]
		resolved := false
		for _, forced := range [2]decomp.Color{st.colors[l][id], st.colors[l][id].Flip()} {
			st.locks[l][id] = forced
			r := colorflip.OptimizeLockedR(st.ocgs[l], comp, st.locks[l], st.rec)
			if !r.Feasible {
				continue
			}
			if sameColors(r.Colors, saved) {
				// The DP reproduced the assignment the window was just
				// decomposed under, so this attempt would score exactly
				// curBad (> baseBad): reject it without re-running the
				// oracle or touching st.colors at all.
				st.rec.Inc(obs.CtrFlipsRejected)
				continue
			}
			for n, col := range r.Colors {
				st.colors[l][n] = col
			}
			res := st.decompLayer(l, st.windowLayout(l, ids, -1))
			if windowBadness(res) <= baseBad {
				resolved = true
				break
			}
			st.rec.Inc(obs.CtrFlipsRejected)
			for n, col := range saved {
				st.colors[l][n] = col
			}
		}
		if resolved {
			st.rec.Inc(obs.CtrWindowResolved)
			st.rec.Inc(obs.CtrFlipsApplied)
			if st.rec.Tracing() {
				st.rec.Trace("window_check", obs.I("net", id), obs.I("layer", l),
					obs.I("base", baseBad), obs.I("cur", curBad), obs.S("outcome", "resolved"))
			}
			continue
		}
		// No coloring clears the window: restore and rip up.
		if hadLock {
			st.locks[l][id] = savedLock
		} else {
			delete(st.locks[l], id)
		}
		for n, col := range saved {
			st.colors[l][n] = col
		}
		st.rec.Inc(obs.CtrWindowFailed)
		st.rec.NetWindowFail(id)
		if st.rec.Tracing() {
			st.rec.Trace("window_check", obs.I("net", id), obs.I("layer", l),
				obs.I("base", baseBad), obs.I("cur", curBad), obs.S("outcome", "ripup"))
		}
		if st.opt.DebugWindow || debugWindowEnv {
			st.rec.Debugf("WIN net=%d l=%d base=%d cur=%d comp=%d\n",
				id, l, baseBad, curBad, len(comp))
		}
		hot = append(hot, st.conflictCells(cur, l)...)
		bad = true
	}
	return bad, hot
}

// sameColors reports whether the flipping DP's assignment is identical to
// the coloring it started from.
func sameColors(got, cur map[int]decomp.Color) bool {
	if len(got) != len(cur) {
		return false
	}
	for n, c := range got {
		cc, ok := cur[n]
		if !ok || cc != c {
			return false
		}
	}
	return true
}

// decompLayer runs the cut-process oracle on one layer's layout, through
// that layer's memo cache when the run has one (Options.DecompCache).
// Window checks, repair passes and final metrics all funnel through here,
// so they share entries: a repeated window or an unchanged full layer is
// a hit. Cache state is single-goroutine: the router is serial.
func (st *state) decompLayer(l int, ly decomp.Layout) *decomp.Result {
	if st.caches == nil {
		return decomp.DecomposeCutR(ly, st.rec)
	}
	return st.caches[l].DecomposeCut(ly, st.rec)
}

// windowBadness scores a window decomposition by its forbidden artifacts:
// cut conflicts, violations and hard overlays.
func windowBadness(r *decomp.Result) int {
	return len(r.Conflicts) + len(r.Violations) + r.HardOverlays
}

// windowLayout assembles the oracle input for one layer window. Nets listed
// in ids contribute their full fragment lists; skip is excluded entirely.
func (st *state) windowLayout(l int, ids []int, skip int) decomp.Layout {
	ly := decomp.Layout{Rules: st.ds, Die: st.g.DieNM()}
	for _, n := range ids {
		if n == skip {
			continue
		}
		rects := st.frags[l].NetRects(n)
		if len(rects) == 0 {
			continue
		}
		nm := make([]geom.Rect, len(rects))
		for i, cr := range rects {
			nm[i] = st.g.CellsToNM(cr)
		}
		ly.Pats = append(ly.Pats, decomp.Pattern{Net: n, Color: st.colors[l][n], Rects: nm})
	}
	return ly
}

// conflictCells maps oracle conflict locations back to grid cells on layer
// l for cost inflation.
func (st *state) conflictCells(res *decomp.Result, l int) []grid.Cell {
	var out []grid.Cell
	p := st.ds.Pitch()
	addRect := func(r geom.Rect) {
		x0, y0 := fdiv(r.X0, p), fdiv(r.Y0, p)
		x1, y1 := fdiv(r.X1-1, p)+1, fdiv(r.Y1-1, p)+1
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				c := grid.Cell{X: x, Y: y, L: l}
				if st.g.In(c) {
					out = append(out, c)
				}
			}
		}
	}
	for _, cf := range res.Conflicts {
		addRect(cf.Rect.Expand(p))
	}
	return out
}

// repairConflicts is the post-routing safety net: decompose the full layout
// with the oracle, rip up every net implicated in a remaining cut conflict,
// hard overlay or violation, and reroute it with inflated costs. A few
// passes suffice in practice; anything left shows up honestly in the final
// metrics.
func (st *state) repairConflicts() {
	st.inRepair = true
	defer func() { st.inRepair = false }()
	for pass := 0; pass < 10; pass++ {
		if st.canceled() {
			return
		}
		offenders := st.offenders()
		st.rec.Inc(obs.CtrRepairPasses)
		if st.rec.Tracing() {
			st.rec.Trace("repair_pass", obs.I("pass", pass), obs.I("offenders", len(offenders)))
		}
		if len(offenders) == 0 {
			return
		}
		for _, id := range offenders {
			if _, routed := st.res.Paths[id]; !routed {
				continue
			}
			path := st.res.Paths[id]
			st.ripup(id)
			st.res.Routed--
			st.rec.Inc(obs.CtrRepairRips)
			st.rec.NetRipup(id, obs.RipRepair)
			if st.rec.Tracing() {
				st.rec.Trace("ripup", obs.I("net", id), obs.S("cause", "repair"))
			}
			st.inflate(path, 6*st.opt.Alpha)
			st.routeNet(id)
		}
	}
	// Terminal guarantee: if anything still conflicts after the repair
	// budget, drop the offenders outright — the paper's router guarantees
	// conflict-free output, trading routability where necessary.
	for _, id := range st.offenders() {
		if _, routed := st.res.Paths[id]; !routed {
			continue
		}
		st.ripup(id)
		st.res.Routed--
		st.res.Failed++
		st.rec.NetRipup(id, obs.RipRepair)
		st.rec.NetFail(id)
		if st.rec.Tracing() {
			st.rec.Trace("route_fail", obs.I("net", id), obs.S("reason", "repair_drop"))
		}
	}
}

// offenders lists the nets implicated in oracle conflicts, hard overlays or
// violations of the current full layout.
func (st *state) offenders() []int {
	bad := map[int]bool{}
	for l, ly := range st.res.Layouts() {
		res := st.decompLayer(l, ly)
		for _, cf := range res.Conflicts {
			bad[ly.Pats[cf.Pat].Net] = true
		}
		for _, ov := range res.Overlays {
			if ov.Hard {
				bad[ly.Pats[ov.Pat].Net] = true
			}
		}
		for _, n := range res.BadNets {
			bad[n] = true
		}
	}
	out := make([]int, 0, len(bad))
	for n := range bad {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

func fdiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
