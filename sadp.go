// Package sadp is the public facade of the SADP overlay-aware detailed
// router: a from-scratch implementation of Liu, Fang and Chang,
// "Overlay-Aware Detailed Routing for Self-Aligned Double Patterning
// Lithography Using the Cut Process" (DAC 2014 / IEEE TCAD 2016).
//
// The typical flow is:
//
//	nl, _ := sadp.ReadNetlist(f)                  // or sadp.Generate(spec)
//	res := sadp.Route(nl, sadp.Node10nm(), sadp.Defaults())
//	layers, totals := sadp.Evaluate(res)          // decomposition oracle
//	fmt.Printf("%.1f%% routed, %.1f overlay units, %d cut conflicts\n",
//	        res.Routability(), totals.SideOverlayUnits, totals.Conflicts)
//
// Route performs the paper's algorithm: overlay-constraint-graph-guided
// A* search, rip-up-and-reroute on hard odd cycles and cut conflicts,
// pseudo-coloring, and the linear-time color-flipping DP. Evaluate measures
// the result with the layout-decomposition oracle (assistant-core
// synthesis, merge bridges, spacer protection, overlay and cut-conflict
// extraction).
package sadp

import (
	"context"
	"io"

	"sadproute/internal/bench"
	"sadproute/internal/decomp"
	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/netlist"
	"sadproute/internal/obs"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Rules is an SADP design-rule set.
	Rules = rules.Set
	// Netlist is a routing problem instance.
	Netlist = netlist.Netlist
	// Net is a two-pin net with candidate pin locations.
	Net = netlist.Net
	// Pin is a net terminal.
	Pin = netlist.Pin
	// Options are the router parameters (paper defaults via Defaults).
	Options = router.Options
	// Result is a completed routing run.
	Result = router.Result
	// Layout is a per-layer colored-pattern input to the oracle.
	Layout = decomp.Layout
	// DecompResult is one layer's decomposition measurement.
	DecompResult = decomp.Result
	// Totals aggregates decomposition metrics across layers.
	Totals = decomp.Totals
	// Spec parameterizes the synthetic benchmark generator.
	Spec = bench.Spec
	// Color is a mask assignment (CoreMask or SecondMask).
	Color = decomp.Color
	// Pattern is one net's colored geometry on a layer.
	Pattern = decomp.Pattern
	// Rect is an axis-aligned half-open rectangle (nm or track units).
	Rect = geom.Rect
	// Cell addresses a routing-grid cell.
	Cell = grid.Cell
	// Blockage is a rectangle of forbidden cells on one layer.
	Blockage = netlist.Blockage
	// Recorder collects router metrics and trace events (attach one via
	// Options.Obs; a nil Recorder is a safe no-op).
	Recorder = obs.Recorder
	// ObsSnapshot is a point-in-time copy of a Recorder's counters, gauges
	// and per-stage wall times.
	ObsSnapshot = obs.Snapshot
)

// Mask assignments.
const (
	CoreMask   = decomp.Core
	SecondMask = decomp.Second
)

// NewRecorder returns an enabled observability recorder. Attach it through
// Options.Obs, then read Snapshot() after routing; call SetTrace to stream
// deterministic JSONL trace events.
func NewRecorder() *Recorder { return obs.New() }

// Node10nm returns the paper's 10 nm-node design rules.
func Node10nm() Rules { return rules.Node10nm() }

// Defaults returns the paper's router parameter settings
// (alpha = beta = 1, gamma = 1.5, f_threshold = 10 units, B = 3).
func Defaults() Options { return router.Defaults() }

// Route runs the overlay-aware detailed router.
func Route(nl *Netlist, ds Rules, opt Options) *Result {
	return router.Route(nl, ds, opt)
}

// RouteCtx is Route under a cancellable context (job cancellation and
// graceful drain in the sadpd daemon). The partial result and ctx.Err()
// are returned on cancellation; a never-cancelled context yields a
// result byte-identical to Route.
func RouteCtx(ctx context.Context, nl *Netlist, ds Rules, opt Options) (*Result, error) {
	return router.RouteCtx(ctx, nl, ds, opt)
}

// Evaluate decomposes a routing result with the cut-process oracle and
// returns per-layer results plus aggregate totals. The results belong to
// the caller.
func Evaluate(res *Result) ([]*DecompResult, Totals) {
	return res.DecomposeLayersR(nil)
}

// EvaluateR is Evaluate reporting oracle counters to rec.
func EvaluateR(res *Result, rec *Recorder) ([]*DecompResult, Totals) {
	return res.DecomposeLayersR(rec)
}

// DecomposeCut runs the cut-process oracle on one layer's layout.
func DecomposeCut(ly Layout) *DecompResult { return decomp.DecomposeCut(ly) }

// DecomposeTrim runs the trim-process oracle (used for the baselines).
func DecomposeTrim(ly Layout) *DecompResult { return decomp.DecomposeTrim(ly) }

// Generate builds a reproducible synthetic benchmark netlist.
func Generate(spec Spec) *Netlist { return bench.Generate(spec) }

// PaperSpecs returns the paper's Test1-5 (fixedPins=true) or Test6-10
// (fixedPins=false) benchmark parameterizations.
func PaperSpecs(fixedPins bool) []Spec { return bench.PaperSpecs(fixedPins) }

// HugeSpecs returns the large-die low-congestion "huge" benchmark family
// that motivates Options.SparseSearch: a few dozen long nets threading
// full-stack macro slabs on dies larger than the paper's biggest.
func HugeSpecs() []Spec { return bench.HugeSpecs() }

// ReadNetlist parses the plain-text netlist format.
func ReadNetlist(r io.Reader) (*Netlist, error) { return netlist.Read(r) }

// WriteNetlist serializes a netlist in the plain-text format.
func WriteNetlist(w io.Writer, nl *Netlist) error { return nl.Write(w) }
