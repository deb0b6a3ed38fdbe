package router

import (
	"slices"
	"time"

	"sadproute/internal/astar"
	"sadproute/internal/grid"
	"sadproute/internal/obs"
	"sadproute/internal/sched"
)

// Rip-up episode speculation (Options.RipupSpec): the serial rip-up and
// repair phases process their nets one at a time, but the LIST of nets is
// known when the phase starts — the repair pass computes its offenders up
// front, and the post-wave reroute drains a queue frozen at that moment.
// An episode freezes a clone of the grid and penalty plane with every
// PREDICTED mutation of the phase pre-applied (each offender's rip-up and
// penalty inflation for repair passes; nothing for the pending drain,
// whose nets are already off the grid), then pre-searches every net of
// the episode on idle NetWorkers while the serial loop commits.
//
// Adoption follows the wave-speculation discipline, extended for the
// in-episode ordering: net k's pre-search substitutes for its serial
// first search only when (a) no UNPREDICTED mutation so far — commits,
// blocker rips, window penalties — touched its read region (ep.dirty,
// installed as st.dirty for the episode's duration), and (b) no LATER
// slot's predicted rip-up overlaps it: the clone ripped all offenders up
// front, but the serial search at slot k still sees offenders k+1..n
// routed. When both hold, the serial engine would have read exactly the
// grid and penalties the worker read, so path, statistics and every
// downstream decision are byte-identical to the serial run. Rejected or
// unconsumed pre-searches are counted ripup.spec_wasted and discarded.
type episode struct {
	g   *grid.Grid    // frozen grid clone, predicted rips released
	pen []int32       // frozen penalty clone, predicted bumps applied
	pos map[int]int   // net id -> slot; entries removed as consumed
	res []*specResult // per-slot pre-search results, written by workers
	// future[s] holds slot s's predicted rip-up cells — the mutations the
	// clone anticipated but the serial run has not performed yet. Nil
	// per-slot for pending-drain episodes (their nets are already ripped).
	future []*sched.DirtySet
	async  *sched.Async
	engs   []*astar.Engine
	dirty  *sched.DirtySet // unpredicted serial mutations, live via st.dirty
	// launched/adopted feed ripup.spec_wasted at episode end.
	launched, adopted int
}

// hasSlot reports whether id's rip-up and penalty bumps were pre-applied
// to the episode's clone, i.e. the serial loop must suppress dirty
// marking for exactly those predicted mutations. Nil-safe.
func (ep *episode) hasSlot(id int) bool {
	if ep == nil {
		return false
	}
	_, ok := ep.pos[id]
	return ok
}

// ripupSpecEnabled gates episode creation: speculation needs spare
// workers and at least two nets (a single net has nobody to overlap
// with).
func (st *state) ripupSpecEnabled(n int) bool {
	return st.opt.RipupSpec && st.opt.NetWorkers >= 2 && n >= 2
}

// beginRepairEpisode opens an episode over one repair pass's offender
// list: the clone rips every still-routed offender and applies the exact
// penalty inflation the serial loop will apply (detect.go repairConflicts),
// so each pre-search sees the state its serial slot would see if no
// earlier reroute interfered. Returns nil when speculation is off or the
// pass is too small; callers pass nil straight to endEpisode.
func (st *state) beginRepairEpisode(offenders []int) *episode {
	ids := make([]int, 0, len(offenders))
	for _, id := range offenders {
		if _, routed := st.res.Paths[id]; routed {
			ids = append(ids, id)
		}
	}
	if !st.ripupSpecEnabled(len(ids)) {
		return nil
	}
	ep := &episode{
		g:      st.g.Clone(),
		pen:    slices.Clone(st.pen),
		future: make([]*sched.DirtySet, len(ids)),
	}
	for i, id := range ids {
		path := st.res.Paths[id]
		for _, c := range path {
			ep.g.Release(c)
		}
		st.inflate(ep.pen, path, 6*st.opt.Alpha)
		f := &sched.DirtySet{}
		f.MarkCells(path)
		ep.future[i] = f
	}
	st.launchEpisode(ep, ids)
	return ep
}

// beginPendingEpisode opens an episode over the post-wave reroute queue.
// The queued nets were ripped when they were enqueued — grid and
// penalties already reflect it — so the clone needs no predicted
// mutations and future stays nil: adoption only has to prove no earlier
// reroute of the drain touched the read region. Nets enqueued DURING the
// drain (blocker rips) get no slot and search serially.
func (st *state) beginPendingEpisode() *episode {
	ids := make([]int, 0, len(st.pending))
	seen := make(map[int]bool, len(st.pending))
	for _, id := range st.pending {
		if seen[id] {
			continue
		}
		seen[id] = true
		if _, routed := st.res.Paths[id]; routed {
			continue
		}
		ids = append(ids, id)
	}
	if !st.ripupSpecEnabled(len(ids)) {
		return nil
	}
	ep := &episode{g: st.g.Clone(), pen: slices.Clone(st.pen)}
	st.launchEpisode(ep, ids)
	return ep
}

// launchEpisode starts the pre-search fleet and installs the episode:
// st.dirty collects every unpredicted serial mutation from here on, and
// search() consults st.ep before running the serial engine. Workers get
// pooled engines bound to the frozen clone and no recorder — a validated
// adoption flushes the saved statistics at its canonical slot, exactly
// like wave speculation.
func (st *state) launchEpisode(ep *episode, ids []int) {
	workers := st.opt.NetWorkers
	if workers > len(ids) {
		workers = len(ids)
	}
	ep.pos = make(map[int]int, len(ids))
	for i, id := range ids {
		ep.pos[id] = i
	}
	ep.res = make([]*specResult, len(ids))
	ep.engs = make([]*astar.Engine, workers)
	for i := range ep.engs {
		ep.engs[i] = astar.Acquire(ep.g)
	}
	ep.dirty = &sched.DirtySet{}
	ep.launched = len(ids)
	pen := ep.pen
	ep.async = sched.Launch(len(ids), workers, func(w, i int) {
		id := ids[i]
		n := st.nl.Nets[id]
		cfg := st.searchCfg(pen)
		e := ep.engs[w]
		t0 := time.Now() //lint:allow wallclock per-search duration for the ripup speedup stats; reporting-only
		path, ok := e.Search(int32(id), n.A.Candidates, n.B.Candidates, cfg)
		ep.res[i] = &specResult{
			path:     path,
			ok:       ok,
			read:     e.ReadBBox(),
			expand:   e.Expand,
			pushes:   e.Pushes,
			pops:     e.Pops,
			heapPeak: e.HeapPeak,
			dur:      time.Since(t0), //lint:allow wallclock per-search duration for the ripup speedup stats; reporting-only
		}
	})
	st.rec.Add(obs.CtrRipupSpecSearches, int64(len(ids)))
	st.dirty = ep.dirty
	st.ep = ep
}

// takeEpisodeSpec consumes net id's episode pre-search if it exists and
// validates: joins the one slot it needs (the fleet keeps running), then
// proves the serial engine would have read the same state — no
// unpredicted mutation and no later slot's predicted rip inside the read
// region. The decision depends only on DirtySet geometry, never on
// timing, so counters and traces stay deterministic for a fixed
// configuration. On adoption the saved astar statistics are flushed as
// the serial search would have recorded them.
func (st *state) takeEpisodeSpec(id int) (*specResult, bool) {
	ep := st.ep
	if ep == nil {
		return nil, false
	}
	slot, ok := ep.pos[id]
	if !ok {
		return nil, false
	}
	delete(ep.pos, id)
	ep.async.Wait(slot)
	sp := ep.res[slot]
	if ep.dirty.Intersects(sp.read) {
		return nil, false
	}
	for s := slot + 1; s < len(ep.future); s++ {
		if ep.future[s].Intersects(sp.read) {
			return nil, false
		}
	}
	st.rec.Inc(obs.CtrRipupSpecAdopted)
	st.rec.Inc(obs.CtrAstarSearches)
	st.rec.Add(obs.CtrAstarExpanded, int64(sp.expand))
	st.rec.Add(obs.CtrAstarPushes, int64(sp.pushes))
	st.rec.Add(obs.CtrAstarPops, int64(sp.pops))
	st.rec.Max(obs.GaugeAstarHeapPeak, int64(sp.heapPeak))
	st.rec.Observe(obs.HistAstarExpanded, int64(sp.expand))
	st.rec.NetSearch(id, int64(sp.expand))
	ep.adopted++
	return sp, true
}

// endEpisode joins the fleet, releases the pooled engines, charges the
// unadopted pre-searches to ripup.spec_wasted and records the
// serial-vs-makespan stage pair for the speedup report. Nil-safe, so
// callers need no enabled-check.
func (st *state) endEpisode(ep *episode) {
	if ep == nil {
		return
	}
	ep.async.WaitAll()
	for _, e := range ep.engs {
		e.Release()
	}
	ns := make([]int64, len(ep.res))
	var serial time.Duration
	for i, sp := range ep.res {
		ns[i] = int64(sp.dur)
		serial += sp.dur
	}
	st.rec.Add(obs.CtrRipupSpecWasted, int64(ep.launched-ep.adopted))
	st.rec.AddStage(obs.StageRipupSerial, serial)
	st.rec.AddStage(obs.StageRipupMakespan, time.Duration(sched.Makespan(ns, len(ep.engs))))
	st.dirty = nil
	st.ep = nil
}
