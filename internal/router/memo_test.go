package router_test

import (
	"bytes"
	"fmt"
	"testing"

	"sadproute/internal/bench"
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

// memoDump routes sp and returns everything observable about the run
// except the decomp.* family, which counts oracle work the memo saves:
// totals, paths, colors, every other counter and histogram, and the
// per-net table. It also returns the JSONL trace and the snapshot.
func memoDump(t *testing.T, sp bench.Spec) (string, string, obs.Snapshot) {
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
	snap := rec.Snapshot()
	work := snap
	work.ZeroFamily("decomp.")
	var b bytes.Buffer
	fmt.Fprintf(&b, "routed=%d failed=%d wl=%d vias=%d\n", res.Routed, res.Failed, res.WirelengthCells, res.Vias)
	b.WriteString(work.CountersString())
	b.WriteString(obs.NetStatsString(rec.NetStats()))
	fmt.Fprintf(&b, "paths=%v\ncolors=%v\n", res.Paths, res.Colors)
	return b.String(), tr.String(), snap
}

// checkMemoTransparent holds the router's verdict memo to the uncached
// oracle on sp: at capacity 0 every lookup misses and runs the oracle, at
// capacity 2 entries are evicted constantly, and both must reproduce the
// default run byte for byte — paths, colors, per-net table, JSONL trace
// and every counter outside decomp.*. It returns the default run's
// snapshot.
func checkMemoTransparent(t *testing.T, sp bench.Spec) obs.Snapshot {
	t.Helper()
	want, wantTr, snap := memoDump(t, sp)
	if snap.Counter(obs.CtrDecompMemoHits) == 0 {
		t.Fatal("the memo never hit at its default capacity")
	}
	for _, memoCap := range []int{0, 2} {
		restore := router.SetMemoCap(memoCap)
		got, gotTr, s := memoDump(t, sp)
		restore()
		if memoCap == 0 && s.Counter(obs.CtrDecompMemoHits) != 0 {
			t.Errorf("cap 0: %d hits, want none", s.Counter(obs.CtrDecompMemoHits))
		}
		if memoCap == 2 && s.Counter(obs.CtrDecompMemoEvictions) == 0 {
			t.Error("cap 2: nothing was evicted")
		}
		if got != want {
			t.Fatalf("cap %d diverges from the default:\n--- default\n%s\n--- cap %d\n%s", memoCap, want, memoCap, got)
		}
		if gotTr != wantTr {
			t.Fatalf("cap %d: trace diverges from the default", memoCap)
		}
	}
	return snap
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
