package decomp_test

import (
	"sort"
	"testing"

	"sadproute/internal/bench"
	"sadproute/internal/decomp"
	"sadproute/internal/fragstore"
	"sadproute/internal/geom"
	"sadproute/internal/router"
	"sadproute/internal/rules"
	"sadproute/internal/scenario"
)

// benchRoute routes the benchmarks' small instance once.
func benchRoute(b testing.TB) *router.Result {
	b.Helper()
	sp := bench.Spec{Name: "bench", Nets: 120, Tracks: 40, Layers: 3, Seed: 77,
		PinCandidates: 1, AvgHPWL: 5, Blockages: 2}
	res := router.Route(bench.Generate(sp), rules.Node10nm(), router.Defaults())
	if res.Routed == 0 {
		b.Fatal("routed nothing")
	}
	return res
}

// benchLayouts returns the routed instance's non-empty per-layer layouts —
// the same geometry profile the router's window checks and repair passes
// feed the oracle.
func benchLayouts(b testing.TB) []decomp.Layout {
	b.Helper()
	var out []decomp.Layout
	for _, ly := range benchRoute(b).Layouts() {
		if len(ly.Pats) > 0 {
			out = append(out, ly)
		}
	}
	if len(out) == 0 {
		b.Fatal("no layouts")
	}
	return out
}

// benchWindow builds one window the way the router's windowResolve does:
// on layer 0, the nets with a fragment meeting the lowest-id routed net's
// bounding box expanded by scenario.Reach, in id order. On the routed
// instance it holds 9 patterns.
func benchWindow(b testing.TB) decomp.Layout {
	b.Helper()
	res := benchRoute(b)
	ids := make([]int, 0, len(res.Paths))
	for id := range res.Paths {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	stores := make([]*fragstore.Store, len(res.Colors))
	for l := range stores {
		stores[l] = fragstore.New()
	}
	for _, id := range ids {
		fragstore.AddPath(stores, id, res.Paths[id])
	}
	var bbox geom.Rect
	stores[0].EachNetRect(ids[0], func(r geom.Rect) { bbox = bbox.Union(r) })
	win := stores[0].AppendNets([]int{ids[0]}, bbox.Expand(scenario.Reach))
	return stores[0].Layout(res.Grid, res.Colors[0], win, -1)
}

// BenchmarkDecomposeWindow is the windowResolve-shaped call: one window
// decomposed over and over (the rip-up loop's hot path).
func BenchmarkDecomposeWindow(b *testing.B) {
	ly := benchWindow(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decomp.DecomposeCut(ly)
	}
}

// BenchmarkDecomposeWindowEngine is the same call on a held engine — the
// loop shape of DecomposeLayersR.
func BenchmarkDecomposeWindowEngine(b *testing.B) {
	ly := benchWindow(b)
	var e decomp.Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DecomposeCut(ly, nil)
	}
}

// BenchmarkDecomposeVerdict is the router's window check: the verdict of
// one window on a held engine into a held Verdict, with no Result.
func BenchmarkDecomposeVerdict(b *testing.B) {
	ly := benchWindow(b)
	var e decomp.Engine
	var v decomp.Verdict
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CutVerdict(ly, nil, &v)
	}
}

// BenchmarkDecomposeFull decomposes a whole routed layer — the repair
// pass / final metrics shape.
func BenchmarkDecomposeFull(b *testing.B) {
	lys := benchLayouts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decomp.DecomposeCut(lys[i%len(lys)])
	}
}
