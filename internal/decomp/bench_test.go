package decomp_test

import (
	"testing"

	"sadproute/internal/bench"
	"sadproute/internal/decomp"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// benchLayouts routes a small instance once and returns its per-layer
// layouts — the same geometry profile the router's window checks and
// repair passes feed the oracle.
func benchLayouts(b testing.TB) []decomp.Layout {
	b.Helper()
	ds := rules.Node10nm()
	sp := bench.Spec{Name: "bench", Nets: 120, Tracks: 40, Layers: 3, Seed: 77,
		PinCandidates: 1, AvgHPWL: 5, Blockages: 2}
	res := router.Route(bench.Generate(sp), ds, router.Defaults())
	if res.Routed == 0 {
		b.Fatal("routed nothing")
	}
	var out []decomp.Layout
	for _, ly := range res.Layouts() {
		if len(ly.Pats) > 0 {
			out = append(out, ly)
		}
	}
	if len(out) == 0 {
		b.Fatal("no layouts")
	}
	return out
}

// windowOf trims a layout down to window-check size: the first n patterns,
// matching the handful of nets a windowResolve layout carries.
func windowOf(ly decomp.Layout, n int) decomp.Layout {
	if len(ly.Pats) < n {
		n = len(ly.Pats)
	}
	w := ly
	w.Pats = ly.Pats[:n]
	return w
}

// BenchmarkDecomposeWindow is the windowResolve-shaped call: a small
// multi-net window decomposed over and over (the rip-up loop's hot path).
func BenchmarkDecomposeWindow(b *testing.B) {
	ly := windowOf(benchLayouts(b)[0], 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decomp.DecomposeCutR(ly, nil)
	}
}

// BenchmarkDecomposeWindowEngine is the same call on a held engine — the
// loop shape of DecomposeLayersR.
func BenchmarkDecomposeWindowEngine(b *testing.B) {
	ly := windowOf(benchLayouts(b)[0], 8)
	var e decomp.Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DecomposeCut(ly, nil)
	}
}

// BenchmarkDecomposeFull decomposes a whole routed layer — the repair
// pass / final metrics shape.
func BenchmarkDecomposeFull(b *testing.B) {
	lys := benchLayouts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decomp.DecomposeCutR(lys[i%len(lys)], nil)
	}
}
