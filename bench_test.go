// Benchmarks regenerating the paper's evaluation artifacts (one per table
// and figure; see DESIGN.md §5 for the experiment index). Run with:
//
//	go test -bench=. -benchmem
//
// The Table III/IV benches use scaled-down instances so a full -bench=.
// sweep stays laptop-friendly; cmd/experiments runs the paper-scale
// versions.
package sadp

import (
	"fmt"
	"testing"
	"time"

	"sadproute/internal/bench"
	"sadproute/internal/decomp"
	"sadproute/internal/geom"
	"sadproute/internal/report"
	"sadproute/internal/router"
	"sadproute/internal/rules"
	"sadproute/internal/scenario"
)

func smallInstance(seed int64, cands int) *Netlist {
	return bench.Generate(bench.Spec{
		Name: "bench", Nets: 200, Tracks: 64, Layers: 3,
		Seed: seed, PinCandidates: cands, AvgHPWL: 6, Blockages: 2,
	})
}

// BenchmarkTable2ScenarioOracle regenerates the Table II color-rule data:
// oracle decomposition of every canonical scenario under every assignment.
func BenchmarkTable2ScenarioOracle(b *testing.B) {
	ds := rules.Node10nm()
	cells := func(horiz bool, fixed, c0, c1 int) geom.Rect {
		if horiz {
			return geom.Rect{X0: c0, Y0: fixed, X1: c1 + 1, Y1: fixed + 1}
		}
		return geom.Rect{X0: fixed, Y0: c0, X1: fixed + 1, Y1: c1 + 1}
	}
	nm := func(r geom.Rect) geom.Rect {
		p, w := ds.Pitch(), ds.WLine
		return geom.Rect{X0: r.X0 * p, Y0: r.Y0 * p, X1: (r.X1-1)*p + w, Y1: (r.Y1-1)*p + w}
	}
	pairs := [][2]geom.Rect{
		{cells(true, 5, 0, 4), cells(true, 6, 0, 4)},
		{cells(true, 5, 0, 4), cells(true, 7, 0, 4)},
		{cells(true, 5, 0, 4), cells(true, 5, 5, 9)},
		{cells(false, 2, 6, 10), cells(true, 5, 0, 4)},
		{cells(true, 5, 0, 4), cells(true, 6, 5, 9)},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, pr := range pairs {
			if _, ok := scenario.Classify(pr[0], pr[1], ds); !ok {
				continue
			}
			for a := scenario.CC; a <= scenario.SS; a++ {
				ca, cb := a.Colors()
				ly := decomp.Layout{Rules: ds,
					Die: geom.Rect{X0: -400, Y0: -400, X1: 1000, Y1: 1000},
					Pats: []decomp.Pattern{
						{Net: 0, Color: ca, Rects: []geom.Rect{nm(pr[0])}},
						{Net: 1, Color: cb, Rects: []geom.Rect{nm(pr[1])}},
					}}
				decomp.DecomposeCut(ly)
			}
		}
	}
}

// BenchmarkTable3Ours / TrimBaseline / CutNoMerge regenerate one Table III
// row each on a scaled instance (fixed pins).
func BenchmarkTable3Ours(b *testing.B) {
	benchAlgo(b, bench.AlgoOurs, 1)
}

func BenchmarkTable3TrimBaseline(b *testing.B) {
	benchAlgo(b, bench.AlgoTrimGreedy, 1)
}

func BenchmarkTable3CutNoMerge(b *testing.B) {
	benchAlgo(b, bench.AlgoCutNoMerge, 1)
}

// BenchmarkTable4Ours / Exhaustive regenerate Table IV rows (multiple pin
// candidate locations).
func BenchmarkTable4Ours(b *testing.B) {
	benchAlgo(b, bench.AlgoOurs, 3)
}

func BenchmarkTable4Exhaustive(b *testing.B) {
	benchAlgo(b, bench.AlgoTrimExhaustive, 3)
}

func benchAlgo(b *testing.B, algo bench.Algo, cands int) {
	b.ReportAllocs()
	cfg := bench.RunConfig{Rules: rules.Node10nm(), Budget: 5 * time.Minute}
	var last bench.Metrics
	for i := 0; i < b.N; i++ {
		var err error
		last, err = bench.Run(smallInstance(11, cands), algo, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.RoutabilityPct, "routability%")
	b.ReportMetric(last.OverlayUnits, "overlay-units")
	b.ReportMetric(float64(last.Conflicts+last.HardOverlays), "#C")
}

// BenchmarkFig20Scaling measures the runtime-vs-nets series and reports the
// fitted exponent (paper: ~ n^1.42).
func BenchmarkFig20Scaling(b *testing.B) {
	b.ReportAllocs()
	sizes := []struct {
		nets, tracks int
	}{{100, 48}, {200, 64}, {400, 96}, {800, 128}}
	var k float64
	for i := 0; i < b.N; i++ {
		var xs, ys []float64
		for _, s := range sizes {
			nl := bench.Generate(bench.Spec{
				Name: fmt.Sprintf("f20-%d", s.nets), Nets: s.nets, Tracks: s.tracks,
				Layers: 3, Seed: 20, PinCandidates: 1, AvgHPWL: s.tracks / 10, Blockages: 2,
			})
			res := router.Route(nl, rules.Node10nm(), router.Defaults())
			xs = append(xs, float64(s.nets))
			ys = append(ys, res.CPU.Seconds())
		}
		k, _ = report.LogLogFit(xs, ys)
	}
	b.ReportMetric(k, "exponent")
}

// BenchmarkFig21OddCycle regenerates the Fig. 21 micro-demonstration.
func BenchmarkFig21OddCycle(b *testing.B) {
	ds := rules.Node10nm()
	w := func(horiz bool, fixed, c0, c1 int) geom.Rect {
		p, wl := ds.Pitch(), ds.WLine
		if horiz {
			return geom.Rect{X0: c0 * p, Y0: fixed * p, X1: c1*p + wl, Y1: fixed*p + wl}
		}
		return geom.Rect{X0: fixed * p, Y0: c0 * p, X1: fixed*p + wl, Y1: c1*p + wl}
	}
	ly := decomp.Layout{Rules: ds, Die: geom.Rect{X0: -200, Y0: -200, X1: 800, Y1: 800},
		Pats: []decomp.Pattern{
			{Net: 0, Color: decomp.Second, Rects: []geom.Rect{w(false, 2, 0, 8)}},
			{Net: 1, Color: decomp.Core, Rects: []geom.Rect{w(false, 3, 0, 8)}},
			{Net: 2, Color: decomp.Second, Rects: []geom.Rect{
				w(false, 4, 0, 10), w(true, 10, 1, 4), w(false, 1, 8, 10)}},
		}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := decomp.DecomposeCut(ly)
		if res.HardOverlays != 0 || len(res.Conflicts) != 0 {
			b.Fatal("odd cycle must decompose cleanly")
		}
	}
}

// Ablation benches: the design choices DESIGN.md calls out.
func BenchmarkAblationNoColorFlip(b *testing.B) {
	benchAblation(b, func(o *router.Options) { o.ColorFlip = false })
}
func BenchmarkAblationNoGamma(b *testing.B) {
	benchAblation(b, func(o *router.Options) { o.Gamma2 = 0 })
}
func BenchmarkAblationNoWindow(b *testing.B) {
	benchAblation(b, func(o *router.Options) { o.WindowCheck = false })
}
func BenchmarkAblationFull(b *testing.B) { benchAblation(b, func(o *router.Options) {}) }

func benchAblation(b *testing.B, mod func(*router.Options)) {
	b.ReportAllocs()
	var overlay float64
	for i := 0; i < b.N; i++ {
		opt := router.Defaults()
		mod(&opt)
		res := router.Route(smallInstance(13, 1), rules.Node10nm(), opt)
		_, tot := decomp.DecomposeLayers(res.Layouts())
		overlay = tot.SideOverlayUnits
	}
	b.ReportMetric(overlay, "overlay-units")
}

// BenchmarkDecomposeOracle measures raw oracle throughput on a routed
// medium instance (the substrate cost of every evaluation in the tables).
func BenchmarkDecomposeOracle(b *testing.B) {
	res := router.Route(smallInstance(17, 1), rules.Node10nm(), router.Defaults())
	layouts := res.Layouts()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		decomp.DecomposeLayers(layouts)
	}
}

// BenchmarkAStar measures the search engine on an empty grid.
func BenchmarkAStar(b *testing.B) {
	nl := smallInstance(19, 1)
	ds := rules.Node10nm()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		router.Route(nl, ds, router.Options{
			Alpha: 1, Beta: 1, MaxRipup: 0, MaxExpand: 400000,
		})
		b.StopTimer()
		nl = smallInstance(19, 1)
		b.StartTimer()
	}
}
