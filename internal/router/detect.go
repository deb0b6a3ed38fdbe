package router

import (
	"encoding/binary"
	"sort"

	"sadproute/internal/astar"
	"sadproute/internal/decomp"
	"sadproute/internal/fragstore"
	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/obs"
	"sadproute/internal/scenario"
)

// windowResolve implements the paper's per-net cut conflict check scheme
// (Section III-D) with color-based resolution: decompose a local window
// around the newly routed (and colored) net with the oracle — the nets with
// a fragment meeting the net's bounding box expanded by scenario.Reach —
// and, only when that window is not clean, the window without the net;
// when the net introduced a new cut conflict or violation, try to clear it
// by re-running the component flipping DP with this net's color forced to
// each mask in turn — accepting and locking the first component recoloring
// whose window decomposes cleanly. Only when no coloring clears the window
// does the net get ripped up; hot returns the cells implicated, for
// targeted rip-up cost inflation.
func (st *state) windowResolve(id int) (bad bool, hot []grid.Cell) {
	for l := 0; l < st.nl.Layers; l++ {
		fs := st.frags[l]
		if !fs.Has(id) {
			continue
		}
		st.rec.Inc(obs.CtrWindowChecks)
		st.rec.NetWindowCheck(id)
		var bbox geom.Rect
		fs.EachNetRect(id, func(r geom.Rect) { bbox = bbox.Union(r) })
		window := bbox.Expand(scenario.Reach)

		if st.winNets == nil {
			st.winNets = make(map[int]bool)
		} else {
			clear(st.winNets)
		}
		netsIn := st.winNets
		netsIn[id] = true
		fs.Query(window, func(f fragstore.Frag) { netsIn[f.Net] = true })
		ids := st.winIDs[:0]
		for n := range netsIn {
			ids = append(ids, n)
		}
		sort.Ints(ids)
		st.winIDs = ids
		st.rec.Observe(obs.HistWindowNets, int64(len(ids)))

		// Current coloring. Badness is never negative, so a window that is
		// clean with the net cannot be worse than its baseline, and only a
		// dirty window pays for the baseline.
		cur := st.verdictOf(l, fs.BuildLayout(&st.layout, st.g, st.colors[l], ids, -1))
		curBad := cur.bad
		if curBad == 0 {
			if st.rec.Tracing() {
				st.rec.Trace("window_check", obs.I("net", id), obs.I("layer", l),
					obs.I("cur", 0), obs.S("outcome", "clean"))
			}
			continue
		}
		// Baseline: the window without the new net.
		baseBad := st.verdictOf(l, fs.BuildLayout(&st.layout, st.g, st.colors[l], ids, id)).bad
		if curBad <= baseBad {
			if st.rec.Tracing() {
				st.rec.Trace("window_check", obs.I("net", id), obs.I("layer", l),
					obs.I("base", baseBad), obs.I("cur", curBad), obs.S("outcome", "clean"))
			}
			continue
		}

		// The net made things worse: try to resolve by recoloring its
		// component with the net's color forced each way. Both attempts
		// solve one spanning tree: recoloring leaves the graph as it is.
		comp := st.buildTree(l, id)
		saved := st.saved[:0]
		for _, n := range comp {
			saved = append(saved, st.colors[l][n])
		}
		st.saved = saved
		restore := func() {
			for i, n := range comp {
				st.colors[l][n] = saved[i]
			}
		}
		savedLock, hadLock := st.locks[l][id]
		resolved := false
		for _, forced := range [2]decomp.Color{st.colors[l][id], st.colors[l][id].Flip()} {
			st.locks[l][id] = forced
			r := st.tree.Solve(st.locks[l], st.rec)
			if !r.Feasible {
				continue
			}
			if sameColors(r.Colors, comp, saved) {
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
			if st.verdictOf(l, fs.BuildLayout(&st.layout, st.g, st.colors[l], ids, -1)).bad <= baseBad {
				resolved = true
				break
			}
			st.rec.Inc(obs.CtrFlipsRejected)
			restore()
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
		restore()
		st.rec.Inc(obs.CtrWindowFailed)
		st.rec.NetWindowFail(id)
		if st.rec.Tracing() {
			st.rec.Trace("window_check", obs.I("net", id), obs.I("layer", l),
				obs.I("base", baseBad), obs.I("cur", curBad), obs.S("outcome", "ripup"))
		}
		hot = append(hot, st.conflictCells(cur.conflicts, l)...)
		bad = true
	}
	return bad, hot
}

// sameColors reports whether the flipping DP's assignment is identical to
// the coloring it started from: cur[i] is the color of nets[i], and got
// colors exactly those nets.
func sameColors(got map[int]decomp.Color, nets []int, cur []decomp.Color) bool {
	if len(got) != len(nets) {
		return false
	}
	for i, n := range nets {
		if c, ok := got[n]; !ok || c != cur[i] {
			return false
		}
	}
	return true
}

// memoCap bounds each layer's verdict memo. When it is full, the oldest
// entry leaves first (FIFO), whatever the hit pattern, so two runs with the
// same call sequence keep the same entries. Tests lower it: at 0 every
// lookup misses.
var memoCap = 4096

// verdict is what the router reads from one oracle run on a layer layout
// (decomp.Verdict): the window badness (cut conflicts, violations and
// hard overlays), the conflict rects conflictCells inflates, and the nets
// offenders rips up. Its slices are its own, exactly sized.
type verdict struct {
	bad       int
	conflicts []geom.Rect
	nets      []int
}

// layerMemo maps a layer layout's pattern serialization to its verdict.
// Rules and die are fixed for the run, so the patterns alone key it.
type layerMemo struct {
	m    map[string]*verdict
	ring []string // keys of the stored verdicts, oldest at head
	head int
	key  []byte // serialization scratch
}

// verdictOf runs the cut-process oracle on one layer's layout, or answers
// from the layer's memo. Window checks and repair passes ask about many
// layouts more than once (a window without the new net, an unchanged full
// layer), so they share one memo per layer, keyed by net, color and rects
// of the patterns in the order given. The oracle writes its verdict into
// the run's buffer, and the returned verdict owns copies, so it outlives
// the buffer's next use and the layout's.
func (st *state) verdictOf(l int, ly decomp.Layout) *verdict {
	mm := &st.memo[l]
	k := mm.key[:0]
	for _, p := range ly.Pats {
		k = binary.AppendVarint(k, int64(p.Net))
		k = append(k, byte(p.Color))
		k = binary.AppendUvarint(k, uint64(len(p.Rects)))
		for _, r := range p.Rects {
			for _, v := range [4]int{r.X0, r.Y0, r.X1, r.Y1} {
				k = binary.AppendVarint(k, int64(v))
			}
		}
	}
	mm.key = k
	if v, ok := mm.m[string(k)]; ok {
		st.rec.Inc(obs.CtrDecompMemoHits)
		return v
	}
	st.rec.Inc(obs.CtrDecompMemoMisses)
	decomp.CutVerdict(ly, st.rec, &st.verdict)
	v := &verdict{bad: st.verdict.Bad, conflicts: owned(st.verdict.Conflicts), nets: owned(st.verdict.Nets)}
	if memoCap == 0 {
		return v
	}
	if mm.m == nil {
		mm.m = make(map[string]*verdict)
	}
	key := string(k)
	if len(mm.ring) < memoCap {
		mm.ring = append(mm.ring, key)
	} else {
		delete(mm.m, mm.ring[mm.head])
		mm.ring[mm.head] = key
		mm.head = (mm.head + 1) % memoCap
		st.rec.Inc(obs.CtrDecompMemoEvictions)
	}
	mm.m[key] = v
	return v
}

// owned returns an exactly sized copy of s, or nil when s is empty.
func owned[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// conflictCells maps oracle conflict rects back to grid cells on layer l
// for cost inflation.
func (st *state) conflictCells(conflicts []geom.Rect, l int) []grid.Cell {
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
	for _, r := range conflicts {
		addRect(r.Expand(p))
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
			st.inflate(path, 6*st.opt.Alpha*astar.Scale)
			st.routeNet(id)
		}
		// A reroute may rip blockers; they reroute within the pass.
		st.drainPending()
	}
	// Terminal guarantee: if anything still conflicts after the repair
	// budget, drop the offenders outright — the paper's router guarantees
	// conflict-free output, trading routability where necessary. Dropping
	// a net changes its neighbours' assists and merges, which can make a
	// new offender, so drop until no routed net offends; every round
	// removes a routed net, so the loop ends.
	for dropped := true; dropped; {
		dropped = false
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
			dropped = true
		}
	}
}

// offenders lists the nets implicated in oracle conflicts, hard overlays or
// violations of the current full layout.
func (st *state) offenders() []int {
	bad := map[int]bool{}
	for l, fs := range st.frags {
		ly := fs.BuildLayout(&st.layout, st.g, st.colors[l], fs.NetIDs(), -1)
		for _, n := range st.verdictOf(l, ly).nets {
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
