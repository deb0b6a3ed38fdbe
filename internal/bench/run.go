package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"sadproute/internal/baseline"
	"sadproute/internal/decomp"
	"sadproute/internal/netlist"
	"sadproute/internal/obs"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// Metrics is one row of the paper's evaluation tables.
type Metrics struct {
	Bench  string
	Algo   string
	Nets   int
	SizeUM float64
	// NA marks runs aborted on time budget (the paper's "NA" entries).
	NA bool

	RoutabilityPct float64
	OverlayUnits   float64 // total side-overlay length in w_line units
	OverlayNM      int
	Conflicts      int // #C: cut conflicts (cut process) or trim conflicts
	HardOverlays   int
	Violations     int
	CPU            time.Duration
	Wirelength     int
	Vias           int
	Ripups         int

	// Obs is the observability snapshot of the run. AlgoOurs populates it
	// fully: per-stage wall times plus the router/oracle counters. Baseline
	// algorithms are uninstrumented, so their rows carry only a minimal
	// snapshot — StageEvaluate (oracle measurement time) and StageTotal
	// (routing CPU plus evaluation); every counter and gauge stays zero.
	// See docs/trace-schema.md ("Metrics.Obs asymmetry") before comparing
	// counter columns across algorithms.
	Obs obs.Snapshot
	// NetStats is the per-net work attribution table of the run, in
	// canonical net order. AlgoOurs only; the ledger serializes its head.
	NetStats []obs.NetStat
	// AllocBytes/AllocObjects are process-wide runtime.MemStats deltas over
	// the run (AlgoOurs only) — measurement, not identity: under a parallel
	// harness they include concurrent cells' allocations. They feed the
	// ledger's timing section and are never compared byte for byte.
	AllocBytes   int64
	AllocObjects int64
}

// Algo identifies one router under comparison.
type Algo string

const (
	AlgoOurs           Algo = "ours"
	AlgoTrimGreedy     Algo = "gao-pan-trim"  // ref [11]
	AlgoCutNoMerge     Algo = "cut-no-merge"  // ref [16]
	AlgoTrimExhaustive Algo = "du-exhaustive" // ref [10]
)

// RunConfig tunes a harness run.
type RunConfig struct {
	Rules rules.Set
	// Budget aborts baseline runs that exceed it (0 = unlimited). It is
	// enforced by per-cell context cancellation: the exhaustive baseline
	// aborts mid-sweep as soon as the deadline passes.
	Budget time.Duration
	// Context, when non-nil, is the parent of the per-run budget context;
	// canceling it aborts budgeted baseline runs early. The parallel
	// Harness threads its group context through here so one failing cell
	// stops the sweeps of cells still pending. Nil means Background.
	Context context.Context
	// RouterOptions overrides the paper defaults for AlgoOurs (nil = defaults).
	RouterOptions *router.Options
}

// Run routes the netlist with the chosen algorithm and measures the
// result with the matching decomposition oracle. Metrics with NA=true are
// returned when the algorithm exceeded the budget; an unknown algorithm,
// and an AlgoOurs run that leaves a net neither routed nor failed, are
// errors.
func Run(nl *netlist.Netlist, algo Algo, cfg RunConfig) (Metrics, error) {
	m := Metrics{
		Bench:  nl.Name,
		Algo:   string(algo),
		Nets:   len(nl.Nets),
		SizeUM: float64(nl.W) * float64(cfg.Rules.Pitch()) / 1000,
	}
	switch algo {
	case AlgoOurs:
		opt := router.Defaults()
		if cfg.RouterOptions != nil {
			opt = *cfg.RouterOptions
		}
		rec := opt.Obs
		if rec == nil {
			rec = obs.New()
			opt.Obs = rec
		}
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		stopTotal := rec.Span(obs.StageTotal)
		res := router.Route(nl, cfg.Rules, opt)
		if res.Routed+res.Failed != len(nl.Nets) {
			return Metrics{}, fmt.Errorf("bench: %s: %d routed + %d failed of %d nets", nl.Name, res.Routed, res.Failed, len(nl.Nets))
		}
		m.RoutabilityPct = res.Routability()
		m.CPU = res.CPU
		m.Wirelength = res.WirelengthCells
		m.Vias = res.Vias
		stopEval := rec.Span(obs.StageEvaluate)
		_, tot := res.DecomposeLayersR(rec)
		applyTotals(&m, tot)
		stopEval()
		stopTotal()
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		m.AllocBytes = int64(ms1.TotalAlloc - ms0.TotalAlloc)
		m.AllocObjects = int64(ms1.Mallocs - ms0.Mallocs)
		m.Obs = rec.Snapshot()
		m.NetStats = rec.NetStats()
		m.Ripups = int(m.Obs.Counter(obs.CtrRouteRipups))
	case AlgoTrimGreedy:
		out := baseline.TrimGreedy{}.Run(nl, cfg.Rules)
		fillBaseline(&m, out)
	case AlgoCutNoMerge:
		out := baseline.CutNoMerge{}.Run(nl, cfg.Rules)
		fillBaseline(&m, out)
	case AlgoTrimExhaustive:
		ctx := cfg.Context
		if ctx == nil {
			ctx = context.Background()
		}
		if cfg.Budget > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cfg.Budget)
			defer cancel()
		}
		out := baseline.TrimExhaustive{}.RunCtx(ctx, nl, cfg.Rules)
		if out == nil {
			m.NA = true
			m.CPU = cfg.Budget
			return m, nil
		}
		fillBaseline(&m, out)
	default:
		return Metrics{}, fmt.Errorf("bench: unknown algorithm %q", string(algo))
	}
	return m, nil
}

func fillBaseline(m *Metrics, out *baseline.Out) {
	m.RoutabilityPct = out.Routability()
	m.CPU = out.CPU
	m.Wirelength = out.WirelengthCells
	m.Vias = out.Vias
	m.Ripups = out.Ripups
	// Baselines are uninstrumented; give their rows the minimal snapshot
	// documented on Metrics.Obs: evaluation wall time measured here, total
	// = routing CPU + evaluation. Counters stay zero.
	rec := obs.New()
	stopEval := rec.Span(obs.StageEvaluate)
	fill(m, out.Layouts, out.Trim)
	stopEval()
	m.Obs = rec.Snapshot()
	m.Obs.StageNS[obs.StageTotal] = int64(out.CPU) + m.Obs.StageNS[obs.StageEvaluate]
}

// fill measures the colored layouts with the matching oracle. For cut-
// process results #C counts cut conflicts; hard overlays are reported
// separately (for the no-merge baseline they are decomposition failures
// and are folded into #C, since that router has no cut-based escape).
func fill(m *Metrics, layouts []decomp.Layout, trim bool) {
	var tot decomp.Totals
	if trim {
		_, tot = decomp.DecomposeTrimLayers(layouts)
	} else {
		_, tot = decomp.DecomposeLayers(layouts)
	}
	applyTotals(m, tot)
}

// applyTotals copies the oracle aggregates into the table row.
func applyTotals(m *Metrics, tot decomp.Totals) {
	m.OverlayUnits = tot.SideOverlayUnits
	m.OverlayNM = tot.SideOverlayNM
	m.Conflicts = tot.Conflicts
	m.HardOverlays = tot.HardOverlays
	m.Violations = tot.Violations
}
