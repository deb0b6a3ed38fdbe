// Package router implements the paper's overlay-aware SADP detailed
// routing algorithm (Section III-E, Figs. 18-19): sequential A*-search
// routing guided by per-layer overlay constraint graphs, with
// rip-up-and-reroute on hard odd cycles and cut conflicts, O(1)
// pseudo-coloring of each routed net, threshold-triggered color flipping,
// and a final full-layout flipping pass.
package router

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sadproute/internal/astar"
	"sadproute/internal/colorflip"
	"sadproute/internal/decomp"
	"sadproute/internal/fragstore"
	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/netlist"
	"sadproute/internal/obs"
	"sadproute/internal/ocg"
	"sadproute/internal/rules"
	"sadproute/internal/scenario"
	"sadproute/internal/sparse"
)

// Options are the user-defined parameters of the algorithm. The zero value
// is not useful; start from Defaults.
type Options struct {
	// Alpha and Beta weigh wirelength and via count in cost equation (5),
	// in engine units (astar.Scale halves apply, so gamma can be 1.5).
	Alpha, Beta int
	// Gamma2 is 2*gamma: the type-2-b geometry penalty of eq. (5) doubled
	// to stay integral (paper gamma = 1.5 -> Gamma2 = 3). Zero disables the
	// penalty (ablation).
	Gamma2 int
	// FlipThresholdNM triggers color flipping when a routed net's induced
	// side overlay exceeds it (paper f_threshold = 10 units -> 200 nm).
	FlipThresholdNM int
	// MaxRipup bounds rip-up-and-reroute iterations per net (paper B = 3).
	MaxRipup int
	// ColorFlip enables the color-flipping algorithm (ablation switch);
	// when false, pseudo-coloring alone decides colors.
	ColorFlip bool
	// WindowCheck enables the per-net cut-conflict check against the
	// decomposition oracle on a local window (Section III-D).
	WindowCheck bool
	// FinalRepair enables the post-routing conflict repair pass: oracle
	// decomposition, then rip-up-and-reroute of conflicting nets.
	FinalRepair bool
	// DirPenalty is the soft preferred-direction cost (engine units) for a
	// planar step against the layer's preferred direction (even layers
	// horizontal, odd vertical). Zero disables it.
	DirPenalty int
	// MaxExpand bounds A* node expansions per attempt (0 = unbounded).
	MaxExpand int
	// SparseSearch answers the first search of every net whose HPWL
	// reaches 40 tracks on the corridor graph (internal/sparse) instead of
	// the dense grid; shorter nets search dense. The search expands
	// corridor nodes derived from obstacle boundaries, snaps back to unit
	// tracks, and is adopted only when repricing under the full dense step
	// cost proves the path dense-optimal (exact-or-fallback, see
	// sparseSearch). Routed results stay DRC-equivalent but are not
	// byte-identical to the dense run wherever several optimal paths tie —
	// the engines break ties differently. Off by default, so default
	// behavior is byte-identical to previous releases.
	SparseSearch bool
	// Obs receives counters, stage timings and (when a trace sink is
	// attached) structured trace events. Nil disables observability at a
	// cost of one predicted branch per record point.
	Obs *obs.Recorder
}

// Defaults returns the paper's parameter settings.
func Defaults() Options {
	return Options{
		Alpha:           1,
		Beta:            1,
		Gamma2:          3,
		FlipThresholdNM: 200,
		MaxRipup:        3,
		ColorFlip:       true,
		WindowCheck:     true,
		FinalRepair:     true,
		DirPenalty:      2,
		MaxExpand:       400000,
	}
}

// Validate reports the first option outside its domain. The cost weights
// of eq. (5) — Alpha, Beta, Gamma2 and DirPenalty — must be >= 0: A*
// optimality and termination rest on non-negative step costs (with a
// negative Alpha a path lowers its cost forever by stepping back and
// forth), and the engine refuses a negative weight outright
// (astar.Config). MaxRipup and MaxExpand must be >= 0 too.
func (o Options) Validate() error {
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"Alpha", o.Alpha}, {"Beta", o.Beta}, {"Gamma2", o.Gamma2}, {"DirPenalty", o.DirPenalty},
		{"MaxRipup", o.MaxRipup}, {"MaxExpand", o.MaxExpand},
	} {
		if f.v < 0 {
			return fmt.Errorf("options: %s is %d, must be >= 0", f.name, f.v)
		}
	}
	return nil
}

// Result is a completed routing run. Diagnostics that used to live here
// (rip-up counts by cause, flips, blocker rips) are now counters on the
// Options.Obs recorder — pass one and read its Snapshot.
type Result struct {
	Routed, Failed  int
	Paths           map[int][]grid.Cell
	Colors          []map[int]decomp.Color // per layer: net -> color
	WirelengthCells int
	Vias            int
	CPU             time.Duration
	Grid            *grid.Grid
	frags           []*fragstore.Store
	nl              *netlist.Netlist
}

// Routability returns the share of the netlist's nets routed, in percent.
// A net a cancelled run never reached counts as not routed.
func (r *Result) Routability() float64 {
	if len(r.nl.Nets) == 0 {
		return 100
	}
	return 100 * float64(r.Routed) / float64(len(r.nl.Nets))
}

// Layouts exports the routed, colored design as per-layer decomposition
// inputs for the oracle.
func (r *Result) Layouts() []decomp.Layout {
	return fragstore.Layouts(r.frags, r.Grid, r.Colors)
}

// DecomposeLayersR decomposes every routed layer with the cut-process
// oracle (decomp.DecomposeLayersR) and merges the results; the Results
// belong to the caller. A nil rec disables counter reporting.
func (r *Result) DecomposeLayersR(rec *obs.Recorder) ([]*decomp.Result, decomp.Totals) {
	return decomp.DecomposeLayersR(r.Layouts(), rec)
}

// state carries the per-run working set.
type state struct {
	nl     *netlist.Netlist
	ds     rules.Set
	g      *grid.Grid
	eng    *astar.Engine
	ocgs   []*ocg.Graph
	frags  []*fragstore.Store
	colors []map[int]decomp.Color
	locks  []map[int]decomp.Color // colors pinned by the cut-conflict check
	pen    []int32                // rip-up cost inflation, grid index order; nil until the first inflate
	// sp/speng are the corridor graph and its engine, live only
	// under Options.SparseSearch. sp mirrors g: commit and ripup forward
	// every cell mutation.
	sp    *sparse.Graph
	speng *sparse.Engine
	memo  []layerMemo // per-layer oracle verdicts (verdictOf)
	opt   Options
	res   *Result
	rec   *obs.Recorder // nil-safe observability recorder
	// inRepair enables the window conflict check during the final repair
	// passes regardless of Options.WindowCheck.
	inRepair bool
	// blockerBudget bounds resource rip-ups; pending queues ripped blockers
	// for rerouting.
	blockerBudget int
	pending       []int
	// The per-net checks' buffers, reused from one check to the next:
	// windowResolve's net set and sorted id list, the oracle layouts of
	// windowResolve and offenders and the oracle's verdict on them, the
	// component walk, the flipping tree, and the colors a failed recolor
	// restores.
	winNets   map[int]bool
	winIDs    []int
	layout    fragstore.LayoutBuf
	verdict   decomp.Verdict
	compNets  []int
	compEdges []*ocg.Edge
	tree      colorflip.Tree
	saved     []decomp.Color
	// ctx is the run context (RouteCtx). Checked at net and pass
	// boundaries only: a run that is never cancelled behaves — and
	// traces — byte-identically to one routed without a context.
	ctx context.Context
}

// canceled reports whether the run context has been cancelled. Nil-safe
// so Route (no context) costs one comparison per check point.
func (st *state) canceled() bool {
	return st.ctx != nil && st.ctx.Err() != nil
}

// Route runs the overlay-aware detailed router on a netlist.
func Route(nl *netlist.Netlist, ds rules.Set, opt Options) *Result {
	res, _ := RouteCtx(nil, nl, ds, opt)
	return res
}

// RouteCtx is Route under a cancellable run context: the long-lived
// serving path (internal/serve job cancellation, graceful drain) aborts a
// route mid-run by cancelling ctx. Cancellation is observed at net and
// repair-pass boundaries — the cheapest points that still bound
// the abort latency by one net attempt — and the partial Result is
// returned together with ctx.Err(). A run whose context is never
// cancelled (including ctx == nil) is byte-identical to Route: the check
// points read ctx.Err() and change no routing decision.
func RouteCtx(ctx context.Context, nl *netlist.Netlist, ds rules.Set, opt Options) (*Result, error) {
	start := time.Now() //lint:allow wallclock Result.CPU reporting column; never influences routing decisions
	rec := opt.Obs
	st := &state{
		nl:  nl,
		ds:  ds,
		g:   nl.BuildGrid(ds),
		opt: opt,
		rec: rec,
		ctx: ctx,
	}
	st.eng = astar.New(st.g)
	st.eng.Rec = rec
	if opt.SparseSearch {
		st.sp = sparse.NewGraph(st.g)
		st.speng = sparse.NewEngine(st.sp)
	}
	st.ocgs = make([]*ocg.Graph, nl.Layers)
	st.frags = make([]*fragstore.Store, nl.Layers)
	st.colors = make([]map[int]decomp.Color, nl.Layers)
	st.locks = make([]map[int]decomp.Color, nl.Layers)
	for l := 0; l < nl.Layers; l++ {
		st.ocgs[l] = ocg.New()
		st.frags[l] = fragstore.New()
		st.colors[l] = make(map[int]decomp.Color)
		st.locks[l] = make(map[int]decomp.Color)
	}
	st.memo = make([]layerMemo, nl.Layers)
	st.res = &Result{
		Paths:  make(map[int][]grid.Cell),
		Colors: st.colors,
		Grid:   st.g,
		frags:  st.frags,
		nl:     nl,
	}

	st.blockerBudget = len(nl.Nets) / 2
	stopRoute := rec.Span(obs.StageRoute)
	for _, id := range nl.HPWLOrder() {
		if st.canceled() {
			break
		}
		st.routeNet(id)
	}
	st.drainPending()
	stopRoute()

	// Final full-layout color flipping (line 16 of Fig. 19). A cancelled
	// run skips the finishing passes: its partial Result is discarded by
	// the caller, so polishing it is pure latency before the abort.
	if opt.ColorFlip && !st.canceled() {
		stop := rec.Span(obs.StageColorFlip)
		st.flipAll()
		stop()
	}
	// Final conflict repair against the oracle.
	if opt.FinalRepair && !st.canceled() {
		stop := rec.Span(obs.StageFinalRepair)
		st.repairConflicts()
		stop()
	}

	st.res.CPU = time.Since(start) //lint:allow wallclock Result.CPU reporting column; never influences routing decisions
	if ctx != nil {
		return st.res, ctx.Err()
	}
	return st.res, nil
}

// routeNet routes one net with up to MaxRipup rip-up-and-reroute rounds.
func (st *state) routeNet(id int) {
	n := st.nl.Nets[id]
	bonusUsed := false
	for attempt := 0; ; attempt++ {
		if st.canceled() {
			return
		}
		st.rec.Inc(obs.CtrRouteAttempts)
		st.rec.NetAttempt(id)
		if st.rec.Tracing() {
			st.rec.Trace("route_attempt", obs.I("net", id), obs.I("attempt", attempt))
		}
		path, out := st.search(id, n)
		if out != astar.Found {
			// Resource rip-up: when no path exists, discover the nets
			// blocking every corridor, rip them, and retry; they are
			// rerouted afterwards. A search that gave up (Aborted,
			// Invalid) proved nothing, so the net fails at once, without
			// a probe.
			if out == astar.NoPath && st.blockerBudget > 0 {
				if blockers := st.findBlockers(id, n); len(blockers) > 0 && len(blockers) <= 4 {
					st.blockerBudget -= len(blockers)
					for _, b := range blockers {
						st.ripupBlocker(b, id)
					}
					continue
				}
			}
			st.res.Failed++
			st.rec.Inc(obs.CtrNoPath)
			st.rec.NetFail(id)
			st.rec.Observe(obs.HistNetAttempts, int64(attempt+1))
			if st.rec.Tracing() {
				st.rec.Trace("route_fail", obs.I("net", id), obs.S("reason", failReasons[out]))
			}
			return
		}
		st.commit(id, path)
		odd, infeasible, hot := st.updateGraphs(id)
		bad := odd || infeasible
		cause := ""
		ripCause := obs.RipOddCycle
		if odd {
			st.rec.Inc(obs.CtrRipOddCycle)
			cause = "odd_cycle"
		}
		if infeasible {
			st.rec.Inc(obs.CtrRipInfeasible)
			cause = "infeasible"
			ripCause = obs.RipInfeasible
		}
		if !bad {
			// Color first (pseudo-coloring plus threshold flipping), then
			// check cut conflicts against the oracle; the check may resolve
			// a conflict by re-running the flipping DP with this net's
			// color forced, so coloring must precede it.
			st.colorNewNet(id)
			if st.opt.WindowCheck || st.inRepair {
				var wbad bool
				var whot []grid.Cell
				stop := st.rec.Span(obs.StageWindowCheck)
				wbad, whot = st.windowResolve(id)
				stop()
				if wbad {
					bad = true
					cause = "window"
					ripCause = obs.RipWindow
					hot = append(hot, whot...)
					st.rec.Inc(obs.CtrRipWindow)
				}
			}
		}
		if !bad {
			st.res.Routed++
			st.rec.Observe(obs.HistNetAttempts, int64(attempt+1))
			if st.rec.Tracing() {
				wl, vias := grid.PathLen(path)
				st.rec.Trace("route_ok", obs.I("net", id), obs.I("attempt", attempt),
					obs.I("wl", wl), obs.I("vias", vias))
			}
			return
		}
		// Rip up and reroute with inflated costs along the failed path and
		// sharply inflated costs at the offending cells (lines 7-9).
		st.ripup(id)
		st.rec.Inc(obs.CtrRouteRipups)
		st.rec.NetRipup(id, ripCause)
		if st.rec.Tracing() {
			st.rec.Trace("ripup", obs.I("net", id), obs.S("cause", cause))
		}
		if attempt >= st.opt.MaxRipup {
			// Last resort: rip the neighbors participating in the conflict
			// (they reroute later) and grant one bonus attempt.
			if !bonusUsed && st.blockerBudget > 0 {
				if nbrs := st.hotOwners(id, hot); len(nbrs) > 0 && len(nbrs) <= 3 {
					bonusUsed = true
					st.blockerBudget -= len(nbrs)
					for _, b := range nbrs {
						st.ripupBlocker(b, id)
					}
					attempt--
					continue
				}
			}
			st.res.Failed++
			st.rec.NetFail(id)
			st.rec.Observe(obs.HistNetAttempts, int64(attempt+1))
			if st.rec.Tracing() {
				st.rec.Trace("route_fail", obs.I("net", id), obs.S("reason", "ripup_budget"))
			}
			return
		}
		st.inflate(path, 2*st.opt.Alpha*astar.Scale)
		st.inflate(hot, 16*st.opt.Alpha*astar.Scale)
	}
}

// failReasons names the route_fail reason of each outcome that fails a
// net for want of a path.
var failReasons = [...]string{astar.NoPath: "no_path", astar.Aborted: "budget", astar.Invalid: "invalid"}

// drainPending reroutes the nets ripped up to free resources, including
// those their reroutes rip in turn, so each ends routed or failed.
func (st *state) drainPending() {
	for len(st.pending) > 0 && !st.canceled() {
		id := st.pending[0]
		st.pending = st.pending[1:]
		if _, routed := st.res.Paths[id]; routed {
			continue
		}
		st.routeNet(id)
	}
}

// ripupBlocker rips an already-routed net to free resources for net id and
// queues it for rerouting.
func (st *state) ripupBlocker(b, id int) {
	st.ripup(b)
	st.res.Routed--
	st.rec.Inc(obs.CtrBlockerRips)
	st.rec.NetRipup(b, obs.RipBlocker)
	if st.rec.Tracing() {
		st.rec.Trace("ripup", obs.I("net", b), obs.S("cause", "blocker"), obs.I("for", id))
	}
	st.pending = append(st.pending, b)
}

// search runs overlay-aware A* (eq. (5)), answering from the corridor
// graph first when the net is eligible for it (Options.SparseSearch).
func (st *state) search(id int, n netlist.Net) ([]grid.Cell, astar.Outcome) {
	if st.sparseEligible(n) {
		if path, out, done := st.sparseSearch(id, n); done {
			return path, out
		}
		st.rec.Inc(obs.CtrSparseFallbacks)
	}
	path, out := st.eng.Search(int32(id), n.A.Candidates, n.B.Candidates, st.searchCfg(st.pen))
	st.rec.NetSearch(id, int64(st.eng.Expand))
	return path, out
}

// searchCfg builds the eq. (5) cost model of a net's first search over the
// penalty plane pen: st.pen (nil before the first rip-up), or nil for the
// uniform terms alone (the corridor engine's cost model). Shared by every
// first search and by repriceDense, so all of them price steps
// identically.
func (st *state) searchCfg(pen []int32) astar.Config {
	return astar.Config{
		WL:         st.opt.Alpha,
		Via:        st.opt.Beta,
		Pen:        pen,
		PinVia:     6 * st.opt.Alpha * astar.Scale,
		Gamma2:     st.opt.Gamma2 * st.opt.Alpha,
		DirPenalty: st.opt.DirPenalty,
		MaxExpand:  st.opt.MaxExpand,
	}
}

// inflate adds delta to the rip-up penalty of every cell in cells. The
// penalty plane is allocated here, on the run's first rip-up: a run that
// never rips a net up (Huge1-3) searches without one.
func (st *state) inflate(cells []grid.Cell, delta int) {
	if st.pen == nil {
		st.pen = make([]int32, st.g.W*st.g.H*st.g.Layers)
	}
	for _, c := range cells {
		st.pen[st.g.Index(c)] += int32(delta)
	}
}

// hotOwners returns the routed nets occupying the conflict hot cells (and
// their planar neighborhood), excluding id.
func (st *state) hotOwners(id int, hot []grid.Cell) []int {
	seen := map[int]bool{}
	var out []int
	add := func(c grid.Cell) {
		if !st.g.In(c) {
			return
		}
		if v := st.g.At(c); v >= 0 && int(v) != id && !seen[int(v)] {
			seen[int(v)] = true
			out = append(out, int(v))
		}
	}
	for _, c := range hot {
		add(c)
		add(grid.Cell{X: c.X + 1, Y: c.Y, L: c.L})
		add(grid.Cell{X: c.X - 1, Y: c.Y, L: c.L})
		add(grid.Cell{X: c.X, Y: c.Y + 1, L: c.L})
		add(grid.Cell{X: c.X, Y: c.Y - 1, L: c.L})
	}
	return out
}

// findBlockers runs a soft-occupancy search to identify which routed nets
// stand between the pins of a net whose search ended NoPath. A probe that
// finds no path names no blocker.
func (st *state) findBlockers(id int, n netlist.Net) []int {
	cfg := st.searchCfg(st.pen)
	cfg.PinVia = 0 // the blocker probe prices no pin-via push-off
	cfg.SoftOccupied = 40 * st.opt.Alpha * astar.Scale
	path, probe := st.eng.Search(int32(id), n.A.Candidates, n.B.Candidates, cfg)
	st.rec.NetSearch(id, int64(st.eng.Expand))
	if probe != astar.Found {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	for _, c := range path {
		if v := st.g.At(c); v >= 0 && int(v) != id && !seen[int(v)] {
			seen[int(v)] = true
			out = append(out, int(v))
		}
	}
	return out
}

// commit occupies the path and registers fragments.
func (st *state) commit(id int, path []grid.Cell) {
	for _, c := range path {
		st.g.Occupy(c, int32(id))
		if st.sp != nil {
			st.sp.Occupy(c)
		}
	}
	st.res.Paths[id] = path
	fragstore.AddPath(st.frags, id, path)
	wl, vias := grid.PathLen(path)
	st.res.WirelengthCells += wl
	st.res.Vias += vias
}

// ripup releases a net's cells, fragments, graph edges and colors.
func (st *state) ripup(id int) {
	for _, c := range st.res.Paths[id] {
		st.g.Release(c)
		if st.sp != nil {
			st.sp.Release(c)
		}
	}
	wl, vias := grid.PathLen(st.res.Paths[id])
	st.res.WirelengthCells -= wl
	st.res.Vias -= vias
	delete(st.res.Paths, id)
	for l := 0; l < st.nl.Layers; l++ {
		st.frags[l].RemoveNet(id)
		st.ocgs[l].RemoveNet(id)
		delete(st.colors[l], id)
		delete(st.locks[l], id)
	}
}

// updateGraphs detects the new net's potential overlay scenarios on every
// layer and merges them into the per-layer constraint graphs; it reports
// whether a hard odd cycle or an infeasible pair arose (lines 5-6), plus
// the cells implicated, for targeted cost inflation.
func (st *state) updateGraphs(id int) (odd, infeasible bool, hot []grid.Cell) {
	for l := 0; l < st.nl.Layers; l++ {
		st.frags[l].EachNetRect(id, func(rect geom.Rect) {
			st.frags[l].Query(rect.Expand(scenario.Reach), func(f fragstore.Frag) {
				prof, ok := scenario.Classify(rect, f.Rect, st.ds)
				if !ok {
					return
				}
				var o, inf bool
				if f.Net == id {
					// Self-interaction: both fragments necessarily share a
					// color, so a scenario whose same-color assignments are
					// forbidden (e.g. a sub-d_core U-turn, type 1-a) makes
					// the path undecomposable: treat like an infeasible
					// edge and reroute.
					inf = prof.Forbidden[scenario.CC] && prof.Forbidden[scenario.SS]
				} else {
					o, inf = st.ocgs[l].AddScenario(id, f.Net, prof)
				}
				if o || inf {
					for y := rect.Y0; y < rect.Y1; y++ {
						for x := rect.X0; x < rect.X1; x++ {
							hot = append(hot, grid.Cell{X: x, Y: y, L: l})
						}
					}
				}
				odd = odd || o
				infeasible = infeasible || inf
			})
		})
	}
	return odd, infeasible, hot
}

// colorNewNet pseudo-colors the net on every layer and triggers component
// color flipping when the induced overlay exceeds the threshold
// (lines 11-14).
func (st *state) colorNewNet(id int) {
	for l := 0; l < st.nl.Layers; l++ {
		if !st.frags[l].Has(id) {
			continue
		}
		c := colorflip.PseudoColorLocked(st.ocgs[l], id, st.colors[l], st.locks[l])
		st.colors[l][id] = c
		if !st.opt.ColorFlip {
			continue
		}
		if induced := st.inducedOverlay(l, id); induced > st.opt.FlipThresholdNM {
			nets := st.buildTree(l, id)
			r := st.tree.Solve(st.locks[l], st.rec)
			for n, col := range r.Colors {
				st.colors[l][n] = col
			}
			if r.Feasible {
				st.rec.Inc(obs.CtrFlipsApplied)
			} else {
				st.rec.Inc(obs.CtrFlipsRejected)
			}
			if st.rec.Tracing() {
				feasible := 0
				if r.Feasible {
					feasible = 1
				}
				st.rec.Trace("color_flip", obs.I("net", id), obs.I("layer", l),
					obs.I("comp", len(nets)), obs.I("overlay_nm", induced),
					obs.I("feasible", feasible))
				st.rec.Trace("overlay_delta", obs.I("net", id), obs.I("layer", l),
					obs.I("before_nm", induced), obs.I("after_nm", st.inducedOverlay(l, id)))
			}
		}
	}
}

// inducedOverlay sums the side-overlay cost of the net's edges at current
// colors on one layer.
func (st *state) inducedOverlay(l, id int) int {
	total := 0
	cn := st.colors[l][id]
	for _, e := range st.ocgs[l].Edges(id) {
		o := e.Other(id)
		co, ok := st.colors[l][o]
		if !ok || co == decomp.Unassigned {
			continue
		}
		p := e.ProfileFor(id)
		total += p.Cost[scenario.Of(cn, co)]
	}
	return total
}

// flipAll runs the color-flipping DP on every component of every layer.
func (st *state) flipAll() {
	for l := 0; l < st.nl.Layers; l++ {
		visited := make(map[int]bool)
		nets := make([]int, 0, len(st.colors[l]))
		for n := range st.colors[l] {
			nets = append(nets, n)
		}
		sort.Ints(nets)
		for _, n := range nets {
			if visited[n] {
				continue
			}
			for _, v := range st.buildTree(l, n) {
				visited[v] = true
			}
			r := st.tree.Solve(st.locks[l], st.rec)
			for v, col := range r.Colors {
				st.colors[l][v] = col
			}
		}
	}
}

// buildTree walks net n's OCG component on layer l into the run's buffers
// and rebuilds st.tree for it; it returns the component's sorted nets,
// valid until the next walk.
func (st *state) buildTree(l, n int) []int {
	st.compNets, st.compEdges = st.ocgs[l].Component(n, st.compNets[:0], st.compEdges[:0])
	st.tree.Build(st.compNets, st.compEdges)
	return st.compNets
}
