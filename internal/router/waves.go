package router

import (
	"time"

	"sadproute/internal/astar"
	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/obs"
	"sadproute/internal/sched"
)

// searchHaloCells estimates how far beyond its pin bounding box a net's
// first A* search typically wanders (detours around congestion). Part of
// the conflict-dilation heuristic only: a search that strays further is
// caught by the DirtySet validation, never miscommitted.
const searchHaloCells = 8

// specResult is one net's speculative first search, computed against the
// grid as frozen at its wave boundary. path/ok mirror the Engine.Search
// return; read is the search's read region (astar.Engine.ReadBBox); the
// astar statistics are saved so a validated hit can flush exactly what
// the serial search would have recorded; dur feeds the critical-path
// stage timers.
type specResult struct {
	path     []grid.Cell
	ok       bool
	read     geom.Rect
	expand   int
	pushes   int
	pops     int
	heapPeak int
	dur      time.Duration
}

// conflictDilation is the halo added around each net's pin bounding box
// before the pairwise-disjointness test in sched.Waves: the search halo,
// the scenario classification reach (3 cells, beyond d_indep nothing
// classifies), the window-check halo (windowResolve expands by 3), and
// the cut-spacing reach w_spacer + d_cut converted to cells. Heuristic by
// construction — DirtySet validation is what guarantees correctness.
func (st *state) conflictDilation() int {
	pitch := st.ds.Pitch()
	if pitch <= 0 {
		pitch = 1
	}
	spacing := (st.ds.WSpacer + st.ds.DCut + pitch - 1) / pitch
	return searchHaloCells + 3 + 3 + spacing
}

// netBox is the XY bounding box over both pins' candidate cells.
func (st *state) netBox(id int) geom.Rect {
	n := st.nl.Nets[id]
	first := true
	var r geom.Rect
	note := func(c grid.Cell) {
		cr := geom.Rect{X0: c.X, Y0: c.Y, X1: c.X + 1, Y1: c.Y + 1}
		if first {
			r, first = cr, false
			return
		}
		r = r.Union(cr)
	}
	for _, c := range n.A.Candidates {
		note(c)
	}
	for _, c := range n.B.Candidates {
		note(c)
	}
	return r
}

// routeWaves is the NetWorkers >= 2 counterpart of Route's serial net
// loop. It cuts the canonical order into fixed-size waves and, per wave,
// selects the greedy maximal subset of mutually independent nets
// (sched.Waves over dilated pin boxes), speculates that subset's first
// A* searches concurrently against the grid frozen at the wave boundary,
// and then routes the whole wave strictly in canonical order: search()
// consumes a speculative result only when the commit phase has not
// dirtied its read region, so every commit, rip-up, coloring decision and
// trace event happens exactly as in the serial run.
func (st *state) routeWaves(order []int) {
	workers := st.opt.NetWorkers
	dil := st.conflictDilation()
	boxes := make([]geom.Rect, len(st.nl.Nets))
	boxed := make([]bool, len(st.nl.Nets))
	box := func(id int) geom.Rect {
		if !boxed[id] {
			boxes[id] = st.netBox(id).Expand(dil)
			boxed[id] = true
		}
		return boxes[id]
	}
	waves := sched.WavesR(order, box, 0, st.rec)

	st.dirty = &sched.DirtySet{}
	st.spec = make(map[int]*specResult)
	defer func() {
		st.dirty = nil
		st.spec = nil
	}()
	engs := make([]*astar.Engine, workers)
	for i := range engs {
		// Pooled engines with no recorder: speculative searches must not
		// touch the obs counters — the statistics of the searches that
		// survive validation are flushed at their canonical commit slots.
		engs[i] = astar.Acquire(st.g)
	}
	defer func() {
		for _, e := range engs {
			e.Release()
		}
	}()

	for _, wave := range waves {
		if st.canceled() {
			return
		}
		st.rec.Inc(obs.CtrSchedWaves)
		if len(wave.Spec) > 1 {
			stop := st.rec.Span(obs.StageSpeculate)
			results := make([]*specResult, len(wave.Spec))
			sched.Run(len(wave.Spec), workers, func(w, i int) {
				results[i] = st.specSearch(engs[w], wave.Spec[i])
			})
			stop()
			ns := make([]int64, len(results))
			var serial time.Duration
			for i, sp := range results {
				st.spec[wave.Spec[i]] = sp
				ns[i] = int64(sp.dur)
				serial += sp.dur
			}
			st.rec.Add(obs.CtrSchedSpecSearches, int64(len(wave.Spec)))
			st.rec.AddStage(obs.StageSpecSerial, serial)
			st.rec.AddStage(obs.StageSpecMakespan, time.Duration(sched.Makespan(ns, workers)))
		}
		for _, id := range wave.Nets {
			st.routeNet(id)
		}
		st.dirty.Reset()
		clear(st.spec)
	}
}

// specSearch runs one net's first search on a private engine against the
// frozen grid. Read-only with respect to router state: the grid occupancy
// and the penalty plane are not mutated anywhere between wave start and the
// commit phase, so concurrent reads here are race-free.
func (st *state) specSearch(e *astar.Engine, id int) *specResult {
	n := st.nl.Nets[id]
	cfg := st.searchCfg(st.pen)
	t0 := time.Now() //lint:allow wallclock per-search duration for the netpar speedup stats; reporting-only
	path, ok := e.Search(int32(id), n.A.Candidates, n.B.Candidates, cfg)
	return &specResult{
		path:     path,
		ok:       ok,
		read:     e.ReadBBox(),
		expand:   e.Expand,
		pushes:   e.Pushes,
		pops:     e.Pops,
		heapPeak: e.HeapPeak,
		dur:      time.Since(t0), //lint:allow wallclock per-search duration for the netpar speedup stats; reporting-only
	}
}

// takeSpec consumes the speculative result for net id, if one exists and
// its read region is untouched by this wave's commits so far. On a hit it
// flushes the saved astar statistics — the identical values the serial
// first search would have recorded at this point. Each result is consumed
// at most once, so rip-up re-searches always run serially.
func (st *state) takeSpec(id int) (*specResult, bool) {
	sp, ok := st.spec[id]
	if !ok {
		return nil, false
	}
	delete(st.spec, id)
	if st.dirty.Intersects(sp.read) {
		st.rec.Inc(obs.CtrSchedSpecRetries)
		return nil, false
	}
	st.rec.Inc(obs.CtrSchedSpecHits)
	st.rec.Inc(obs.CtrAstarSearches)
	st.rec.Add(obs.CtrAstarExpanded, int64(sp.expand))
	st.rec.Add(obs.CtrAstarPushes, int64(sp.pushes))
	st.rec.Add(obs.CtrAstarPops, int64(sp.pops))
	st.rec.Max(obs.GaugeAstarHeapPeak, int64(sp.heapPeak))
	st.rec.Observe(obs.HistAstarExpanded, int64(sp.expand))
	st.rec.NetSearch(id, int64(sp.expand))
	return sp, true
}
