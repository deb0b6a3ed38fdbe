package router_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"sadproute/internal/bench"
	"sadproute/internal/decomp"
	"sadproute/internal/obs"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// memoSpecs are the root package's equivalence instances: varied
// density, pin multiplicity and blockage count.
var memoSpecs = []bench.Spec{
	{Name: "eqA", Nets: 140, Tracks: 56, Layers: 3, Seed: 301, PinCandidates: 1, AvgHPWL: 5, Blockages: 2},
	{Name: "eqB", Nets: 120, Tracks: 48, Layers: 3, Seed: 302, PinCandidates: 2, AvgHPWL: 6, Blockages: 3},
	{Name: "eqC", Nets: 200, Tracks: 72, Layers: 3, Seed: 303, PinCandidates: 3, AvgHPWL: 7, Blockages: 4},
}

// congestedSpec rips nets up and its final repair runs three passes, so
// full layers are decomposed again after reroutes.
var congestedSpec = bench.Spec{Name: "congested", Nets: 150, Tracks: 36, Layers: 3, Seed: 9, PinCandidates: 2, AvgHPWL: 4, Blockages: 2}

// routeRun is everything observable about one default route of a spec.
type routeRun struct {
	res   *router.Result
	snap  obs.Snapshot
	stats []obs.NetStat
	trace string // the JSONL trace
}

// routeSpec routes sp under the default options with a tracing recorder.
func routeSpec(t *testing.T, sp bench.Spec) routeRun {
	t.Helper()
	rec := obs.New()
	var tr bytes.Buffer
	rec.SetTrace(&tr)
	opt := router.Defaults()
	opt.Obs = rec
	res := router.Route(bench.Generate(sp), rules.Node10nm(), opt)
	if err := rec.TraceErr(); err != nil {
		t.Fatal(err)
	}
	return routeRun{res: res, snap: rec.Snapshot(), stats: rec.NetStats(), trace: tr.String()}
}

// dump renders the run except the decomp.* family, which counts oracle
// work the memo saves: totals, paths, colors, every other counter, gauge
// and histogram, and the per-net table. maskSearch also zeroes A*'s search
// work — the astar.* counters and histogram, the astar.heap_peak gauge and
// the per-net expanded column — which a search may cut without changing
// any route.
func (r routeRun) dump(maskSearch bool) string {
	work := r.snap
	work.ZeroFamily("decomp.")
	stats := r.stats
	if maskSearch {
		work.ZeroFamily("astar.")
		work.Gauges[obs.GaugeAstarHeapPeak] = 0
		stats = slices.Clone(stats)
		for i := range stats {
			stats[i].Expanded = 0
		}
	}
	var b bytes.Buffer
	res := r.res
	fmt.Fprintf(&b, "routed=%d failed=%d wl=%d vias=%d\n", res.Routed, res.Failed, res.WirelengthCells, res.Vias)
	b.WriteString(work.CountersString())
	b.WriteString(obs.NetStatsString(stats))
	fmt.Fprintf(&b, "paths=%v\ncolors=%v\n", res.Paths, colorMaps(res.Colors))
	return b.String()
}

// colorMaps renders each layer's colored nets as a net-to-color map, the
// form the pinned digests were taken over (map[id:C ...]).
func colorMaps(colors [][]decomp.Color) []map[int]decomp.Color {
	out := make([]map[int]decomp.Color, len(colors))
	for l, cs := range colors {
		out[l] = map[int]decomp.Color{}
		for n, c := range cs {
			if c != decomp.Unassigned {
				out[l][n] = c
			}
		}
	}
	return out
}

// checkMemoTransparent holds the router's verdict memo to the uncached
// oracle on sp: at capacity 0 every lookup misses and runs the oracle, at
// capacity 2 entries are evicted constantly, and both must reproduce the
// default run byte for byte — paths, colors, per-net table, JSONL trace
// and every counter outside decomp.*. It returns the default run's
// snapshot.
func checkMemoTransparent(t *testing.T, sp bench.Spec) obs.Snapshot {
	t.Helper()
	def := routeSpec(t, sp)
	if def.snap.Counter(obs.CtrDecompMemoHits) == 0 {
		t.Fatal("the memo never hit at its default capacity")
	}
	want := def.dump(false)
	for _, memoCap := range []int{0, 2} {
		restore := router.SetMemoCap(memoCap)
		run := routeSpec(t, sp)
		restore()
		if memoCap == 0 && run.snap.Counter(obs.CtrDecompMemoHits) != 0 {
			t.Errorf("cap 0: %d hits, want none", run.snap.Counter(obs.CtrDecompMemoHits))
		}
		if memoCap == 2 && run.snap.Counter(obs.CtrDecompMemoEvictions) == 0 {
			t.Error("cap 2: nothing was evicted")
		}
		if got := run.dump(false); got != want {
			t.Fatalf("cap %d diverges from the default:\n--- default\n%s\n--- cap %d\n%s", memoCap, want, memoCap, got)
		}
		if run.trace != def.trace {
			t.Fatalf("cap %d: trace diverges from the default", memoCap)
		}
	}
	return def.snap
}

// TestVerdictMemoTransparent holds the memo to the uncached oracle on the
// equivalence instances.
func TestVerdictMemoTransparent(t *testing.T) {
	for _, sp := range memoSpecs {
		t.Run(sp.Name, func(t *testing.T) { checkMemoTransparent(t, sp) })
	}
}

// TestRipupAccelerationsMatchSerial proves that the acceleration of the
// rip-up-and-reroute loop — the verdict memo behind every window check
// and repair pass — leaves the run untouched on a congested instance that
// rips nets up and re-checks full layers in three repair passes.
func TestRipupAccelerationsMatchSerial(t *testing.T) {
	snap := checkMemoTransparent(t, congestedSpec)
	if snap.Counter(obs.CtrRouteRipups) == 0 {
		t.Error("instance never ripped up a net: the repair loop is not exercised")
	}
	if n := snap.Counter(obs.CtrRepairPasses); n < 3 {
		t.Errorf("%d repair passes, want >= 3: the instance no longer re-checks full layers", n)
	}
}
