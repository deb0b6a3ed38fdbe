package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sadproute/internal/bench"
	"sadproute/internal/colorflip"
	"sadproute/internal/decomp"
	"sadproute/internal/geom"
	"sadproute/internal/ocg"
	"sadproute/internal/render"
	"sadproute/internal/router"
	"sadproute/internal/rules"
	"sadproute/internal/scenario"
)

// oddCycleLayout builds the Fig. 21/22 micro-layout: three nets whose
// constraint cycle is odd — A and B are adjacent (different colors
// required), B and C are adjacent (different colors required), and C runs
// back alongside A with a single-track overlap, closing the cycle. In the
// trim process this layout is undecomposable; the cut process merges the
// short A/C adjacency and separates it with a cut pattern (the paper's
// Fig. 2(b) / Fig. 21 demonstration).
func oddCycleLayout(ds rules.Set) (cells [][]geom.Rect, names []string) {
	// Cell-coordinate wire fragments for three nets.
	a := []geom.Rect{cellWire(false, 2, 0, 8)} // vertical, col 2
	b := []geom.Rect{cellWire(false, 3, 0, 8)} // vertical, col 3
	c := []geom.Rect{                          // hook: col 4 up, across row 10, down col 1
		cellWire(false, 4, 0, 10),
		cellWire(true, 10, 1, 4),
		cellWire(false, 1, 8, 10),
	}
	return [][]geom.Rect{a, b, c}, []string{"A", "B", "C"}
}

// colorOddCycle runs the paper's machinery on the micro layout: scenario
// classification, overlay constraint graph, color-flipping DP.
func colorOddCycle(ds rules.Set, nets [][]geom.Rect) []decomp.Color {
	g := ocg.New()
	for i := range nets {
		for j := i + 1; j < len(nets); j++ {
			for _, ra := range nets[i] {
				for _, rb := range nets[j] {
					if prof, ok := scenario.Classify(ra, rb, ds); ok {
						g.AddScenario(i, j, prof)
					}
				}
			}
		}
	}
	// The three nets form one component.
	var t colorflip.Tree
	t.Build(g.Component(0, nil, nil))
	t.Solve(make([]decomp.Color, len(nets)), nil)
	colors := make([]decomp.Color, len(nets))
	t.Apply(colors)
	return colors
}

func microLayout(ds rules.Set, nets [][]geom.Rect, colors []decomp.Color, naive bool) decomp.Layout {
	ly := decomp.Layout{
		Rules:        ds,
		Die:          geom.Rect{X0: -200, Y0: -200, X1: 460*2 + 200, Y1: 460*2 + 200},
		NaiveAssists: naive,
	}
	for i, rects := range nets {
		nm := make([]geom.Rect, len(rects))
		for k, r := range rects {
			nm[k] = cellNM(r, ds)
		}
		ly.Pats = append(ly.Pats, decomp.Pattern{Net: i, Color: colors[i], Rects: nm})
	}
	return ly
}

// fig21 renders the odd cycle decomposed by our algorithm (merge + cut).
func fig21(ds rules.Set, outDir string) (string, error) {
	nets, names := oddCycleLayout(ds)
	colors := colorOddCycle(ds, nets)
	ly := microLayout(ds, nets, colors, false)
	res := decomp.DecomposeCut(ly)
	return renderMicro("Fig. 21 — ours: odd cycle decomposed by merge+cut",
		outDir, "fig21.svg", ly, res, names, colors, ds)
}

// fig22 renders the paper's Fig. 22 failure mode of ref. [16]: a second
// pattern whose (naively synthesized) assistant cores merge with the core
// patterns two tracks away on both sides; the cuts removing the merged
// assists run along the cores' full facing boundaries — severe side
// overlays. [16] fixes colors at routing time, so nothing repairs this.
func fig22(ds rules.Set, outDir string) (string, error) {
	nets := [][]geom.Rect{
		{cellWire(false, 1, 0, 8)}, // core wire
		{cellWire(false, 3, 0, 8)}, // second wire between them
		{cellWire(false, 5, 0, 8)}, // core wire
	}
	names := []string{"A", "B", "C"}
	colors := []decomp.Color{decomp.Core, decomp.Second, decomp.Core}
	ly := microLayout(ds, nets, colors, true)
	res := decomp.DecomposeCut(ly)
	return renderMicro("Fig. 22 — [16]-style: core/assist mergers induce severe overlays",
		outDir, "fig22.svg", ly, res, names, colors, ds)
}

func renderMicro(title, outDir, svgName string, ly decomp.Layout, res *decomp.Result, names []string, colors []decomp.Color, ds rules.Set) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", title)
	for i, n := range names {
		fmt.Fprintf(&b, "net %s -> %v\n", n, colors[i])
	}
	fmt.Fprintf(&b, "side overlay: %.1f units, hard: %d, cut conflicts: %d\n\n",
		res.SideOverlayUnits, res.HardOverlays, len(res.Conflicts))
	window := geom.Rect{X0: -80, Y0: -80, X1: 300, Y1: 520}
	b.WriteString(render.ASCII(ly, res, window, ds.Pitch()))
	f, err := os.Create(filepath.Join(outDir, svgName))
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := render.SVG(f, ly, res, window); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\nSVG written to %s\n", filepath.Join(outDir, svgName))
	return b.String(), nil
}

// ablation quantifies the design choices DESIGN.md calls out: color
// flipping, the type-2-b routing penalty, the window conflict check, and
// the rip-up budget.
func ablation(ds rules.Set, scale string) (string, error) {
	sp := specsFor(scale, true)[0]
	cfg := bench.RunConfig{Rules: ds}
	var rows []bench.Metrics

	variants := []struct {
		name string
		mod  func(*router.Options)
	}{
		{"full", func(o *router.Options) {}},
		{"no-colorflip", func(o *router.Options) { o.ColorFlip = false }},
		{"no-gamma", func(o *router.Options) { o.Gamma2 = 0 }},
		{"no-window", func(o *router.Options) { o.WindowCheck = false }},
		{"no-repair", func(o *router.Options) { o.FinalRepair = false }},
		{"ripup-0", func(o *router.Options) { o.MaxRipup = 0 }},
	}
	for _, v := range variants {
		opt := router.Defaults()
		v.mod(&opt)
		m, err := bench.Run(bench.Generate(sp), bench.AlgoOurs, bench.RunConfig{Rules: cfg.Rules, RouterOptions: &opt})
		if err != nil {
			return "", err
		}
		m.Algo = v.name
		rows = append(rows, m)
	}
	var b strings.Builder
	b.WriteString("Ablation — our router with individual mechanisms disabled\n")
	fmt.Fprintf(&b, "%-14s %9s %12s %6s %6s %10s\n", "variant", "Rout.(%)", "Overlay(u)", "#C", "hard", "CPU(s)")
	for _, m := range rows {
		fmt.Fprintf(&b, "%-14s %9.2f %12.1f %6d %6d %10.2f\n",
			m.Algo, m.RoutabilityPct, m.OverlayUnits, m.Conflicts, m.HardOverlays, m.CPU.Seconds())
	}
	return b.String(), nil
}
