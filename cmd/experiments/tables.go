package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sadproute/internal/bench"
	"sadproute/internal/decomp"
	"sadproute/internal/geom"
	"sadproute/internal/report"
	"sadproute/internal/rules"
	"sadproute/internal/scenario"
)

// harness carries the scheduling knobs shared by the routing-heavy
// experiments and builds one bench.Harness per (specs × algos) matrix.
type harness struct {
	jobs     int
	budget   time.Duration
	traceDir string
	ledger   *bench.Ledger // nil unless -bench-json; rows append per experiment
}

// runCells routes every (spec × algo) cell across the worker pool and
// returns metrics in canonical (spec-major, algo-minor) order, appending
// them to the benchmark ledger (if enabled) under the experiment name.
// Experiments run sequentially, so the ledger needs no locking.
func (h harness) runCells(exp string, ds rules.Set, specs []bench.Spec, algos []bench.Algo) ([]bench.Metrics, error) {
	cells := make([]bench.Cell, 0, len(specs)*len(algos))
	for _, sp := range specs {
		for _, a := range algos {
			cells = append(cells, bench.Cell{Spec: sp, Algo: a})
		}
	}
	bh := bench.Harness{
		Jobs: h.jobs,
		Cfg:  bench.RunConfig{Rules: ds, Budget: h.budget},
	}
	if h.traceDir != "" {
		bh.TraceWriter = func(c bench.Cell) (io.WriteCloser, error) {
			return os.Create(filepath.Join(h.traceDir, c.String()+".jsonl"))
		}
	}
	rows, err := bh.Run(cells)
	if err != nil {
		return nil, err
	}
	if h.ledger != nil {
		h.ledger.Add(exp, rows)
	}
	return rows, nil
}

// table2 regenerates the paper's Table II: for each potential overlay
// scenario, the color rule, the minimum side overlay under the rule, and
// the maximum when it is violated — straight from the scenario profiles
// (which the test suite pins to the decomposition oracle).
func table2(ds rules.Set) string {
	var b strings.Builder
	b.WriteString("Table II — color rules of the potential overlay scenarios\n")
	b.WriteString("(costs in w_line units for the canonical 5-track configurations;\n")
	b.WriteString(" F = forbidden: hard overlay or type-A cut conflict)\n\n")
	fmt.Fprintf(&b, "%-11s %-5s %8s %8s %8s %8s %10s %7s %7s\n",
		"geometry", "type", "CC", "CS", "SC", "SS", "rule", "minSO", "maxSO")
	for _, c := range canonicalScenarios() {
		prof, ok := scenario.Classify(c.a, c.b, ds)
		if !ok {
			fmt.Fprintf(&b, "%-11s %-5s %8s %8s %8s %8s %10s %7s %7s\n",
				c.name, "-", "0", "0", "0", "0", "any", "0", "0")
			continue
		}
		cell := func(a scenario.Assign) string {
			s := fmt.Sprintf("%.1f", float64(prof.Cost[a])/float64(ds.WLine))
			if prof.Forbidden[a] {
				s += "F"
			}
			return s
		}
		minSO, maxSO := prof.Floor(), 0
		for a := scenario.CC; a <= scenario.SS; a++ {
			if prof.Cost[a] > maxSO {
				maxSO = prof.Cost[a]
			}
		}
		fmt.Fprintf(&b, "%-11s %-5s %8s %8s %8s %8s %10s %7.1f %7.1f\n",
			c.name, prof.Type, cell(scenario.CC), cell(scenario.CS),
			cell(scenario.SC), cell(scenario.SS), ruleOf(prof),
			float64(minSO)/float64(ds.WLine), float64(maxSO)/float64(ds.WLine))
	}
	return b.String()
}

func ruleOf(p scenario.Profile) string {
	switch {
	case p.HardDiff():
		return "diff!"
	case p.HardSame():
		return "same!"
	case p.Cost[scenario.SS] == 0 && p.Cost[scenario.CC] > 0 &&
		p.Cost[scenario.CS] > 0 && p.Cost[scenario.SC] > 0:
		return "both-S"
	case p.Floor() > 0:
		return "unavoid"
	default:
		return "soft"
	}
}

type canon struct {
	name string
	a, b geom.Rect
}

func cellWire(horiz bool, fixed, c0, c1 int) geom.Rect {
	if horiz {
		return geom.Rect{X0: c0, Y0: fixed, X1: c1 + 1, Y1: fixed + 1}
	}
	return geom.Rect{X0: fixed, Y0: c0, X1: fixed + 1, Y1: c1 + 1}
}

func canonicalScenarios() []canon {
	return []canon{
		{"(0,1,par)", cellWire(true, 5, 0, 4), cellWire(true, 6, 0, 4)},
		{"(0,2,par)", cellWire(true, 5, 0, 4), cellWire(true, 7, 0, 4)},
		{"(1,0,par)", cellWire(true, 5, 0, 4), cellWire(true, 5, 5, 9)},
		{"(2,0,par)", cellWire(true, 5, 0, 4), cellWire(true, 5, 6, 10)},
		{"(0,1,perp)", cellWire(false, 2, 6, 10), cellWire(true, 5, 0, 4)},
		{"(0,2,perp)", cellWire(false, 2, 7, 11), cellWire(true, 5, 0, 4)},
		{"(1,1,par)", cellWire(true, 5, 0, 4), cellWire(true, 6, 5, 9)},
		{"(1,2,par)", cellWire(true, 5, 0, 4), cellWire(true, 7, 5, 9)},
		{"(2,1,par)", cellWire(true, 5, 0, 4), cellWire(true, 6, 6, 10)},
		{"(1,1,perp)", cellWire(false, 2, 6, 10), cellWire(true, 5, 3, 7)},
		{"(1,2,perp)", cellWire(false, 2, 6, 10), cellWire(true, 4, 3, 7)},
	}
}

// appendix reproduces the Figs. 24-34 enumeration: the oracle's verdict
// for every scenario and color assignment.
func appendix(ds rules.Set) string {
	var b strings.Builder
	b.WriteString("Appendix — color assignments for the potential overlay scenarios\n")
	b.WriteString("(oracle-measured side overlay, hard overlays and cut conflicts per\n")
	b.WriteString(" assignment; reproduces the paper's Figs. 24-34)\n\n")
	for _, c := range canonicalScenarios() {
		for a := scenario.CC; a <= scenario.SS; a++ {
			ca, cb := a.Colors()
			ly := decomp.Layout{
				Rules: ds,
				Die:   geom.Rect{X0: -400, Y0: -400, X1: 1000, Y1: 1000},
				Pats: []decomp.Pattern{
					{Net: 0, Color: ca, Rects: []geom.Rect{cellNM(c.a, ds)}},
					{Net: 1, Color: cb, Rects: []geom.Rect{cellNM(c.b, ds)}},
				},
			}
			res := decomp.DecomposeCut(ly)
			fmt.Fprintf(&b, "%-11s %v: SO=%5.1fu tip=%5.1fu hard=%d conflicts=%d\n",
				c.name, a, res.SideOverlayUnits,
				float64(res.TipOverlayNM)/float64(ds.WLine),
				res.HardOverlays, len(res.Conflicts))
		}
	}
	return b.String()
}

func cellNM(r geom.Rect, ds rules.Set) geom.Rect {
	p, w := ds.Pitch(), ds.WLine
	return geom.Rect{X0: r.X0 * p, Y0: r.Y0 * p, X1: (r.X1-1)*p + w, Y1: (r.Y1-1)*p + w}
}

// table3 reproduces Table III: fixed-pin benchmarks, ours vs the trim
// baseline [11] and the no-merge cut baseline [16].
func table3(ds rules.Set, scale string, h harness) (string, error) {
	rows, err := h.runCells("table3", ds, specsFor(scale, true),
		[]bench.Algo{bench.AlgoOurs, bench.AlgoTrimGreedy, bench.AlgoCutNoMerge})
	if err != nil {
		return "", err
	}
	return report.Table("Table III — fixed pin locations (#C = conflicts + hard overlays)", rows, bench.AlgoOurs), nil
}

// table4 reproduces Table IV: multiple pin candidate locations, ours vs
// the exhaustive multi-candidate baseline [10].
func table4(ds rules.Set, scale string, h harness) (string, error) {
	rows, err := h.runCells("table4", ds, specsFor(scale, false),
		[]bench.Algo{bench.AlgoOurs, bench.AlgoTrimExhaustive})
	if err != nil {
		return "", err
	}
	return report.Table("Table IV — multiple pin candidate locations", rows, bench.AlgoOurs), nil
}

// fig20 measures our router's runtime across instance sizes and fits the
// empirical complexity exponent (paper: ~ n^1.42). Cells run in parallel;
// each CPU measurement is the cell's own routing time, which shares cores
// with concurrent cells — pass -jobs 1 for exclusive-core timing.
func fig20(ds rules.Set, scale string, h harness) (string, error) {
	rows, err := h.runCells("fig20", ds, specsFor(scale, true), []bench.Algo{bench.AlgoOurs})
	if err != nil {
		return "", err
	}
	var xs, ys []float64
	var b strings.Builder
	b.WriteString("Fig. 20 — runtime vs number of nets (ours)\n")
	fmt.Fprintf(&b, "%10s %12s\n", "#nets", "CPU(s)")
	for _, m := range rows {
		xs = append(xs, float64(m.Nets))
		ys = append(ys, m.CPU.Seconds())
		fmt.Fprintf(&b, "%10d %12.3f\n", m.Nets, m.CPU.Seconds())
	}
	k, c := report.LogLogFit(xs, ys)
	fmt.Fprintf(&b, "\nleast-squares fit: CPU ~ %.3g * n^%.2f (paper reports n^1.42)\n", c, k)
	return b.String(), nil
}

// stages renders the observability layer's per-stage wall-time breakdown
// and search-effort counters for our router across the benchmark suite —
// the profile behind the paper's runtime discussion (Section IV).
func stages(ds rules.Set, scale string, h harness) (string, error) {
	rows, err := h.runCells("stages", ds, specsFor(scale, true), []bench.Algo{bench.AlgoOurs})
	if err != nil {
		return "", err
	}
	return report.StageTable("Stage timing — ours (wall seconds per pipeline stage)", rows), nil
}
