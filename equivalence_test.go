package sadp

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"sadproute/internal/obs"
)

// eqSpecs are the benchmarks of the equivalence suite: varied density,
// pin multiplicity and blockage count, small enough that each routes
// several times in seconds.
var eqSpecs = []Spec{
	{Name: "eqA", Nets: 140, Tracks: 56, Layers: 3, Seed: 301, PinCandidates: 1, AvgHPWL: 5, Blockages: 2},
	{Name: "eqB", Nets: 120, Tracks: 48, Layers: 3, Seed: 302, PinCandidates: 2, AvgHPWL: 6, Blockages: 3},
	{Name: "eqC", Nets: 200, Tracks: 72, Layers: 3, Seed: 303, PinCandidates: 3, AvgHPWL: 7, Blockages: 4},
}

// routeDump routes one spec under opt and returns a canonical dump of
// everything observable about the run — paths, colors, wirelength,
// decomposition totals, every obs counter (decomp.* included), per-net
// attribution — plus the raw JSONL trace bytes. Stage times and CPU are
// wall-clock and excluded. Failures are reported with t.Errorf, so
// concurrent callers may share t.
func routeDump(t *testing.T, sp Spec, opt Options) (string, string) {
	t.Helper()
	nl := Generate(sp)
	rec := NewRecorder()
	var tr bytes.Buffer
	rec.SetTrace(&tr)
	opt.Obs = rec
	res := Route(nl, Node10nm(), opt)
	if err := rec.TraceErr(); err != nil {
		t.Errorf("%s: %v", sp.Name, err)
	}
	snap := rec.Snapshot()
	var b bytes.Buffer
	fmt.Fprintf(&b, "routed=%d failed=%d wl=%d vias=%d\n",
		res.Routed, res.Failed, res.WirelengthCells, res.Vias)
	b.WriteString(snap.CountersString())
	b.WriteString(obs.NetStatsString(rec.NetStats()))
	fmt.Fprintf(&b, "paths=%v\n", res.Paths)
	fmt.Fprintf(&b, "colors=%v\n", res.Colors)
	layers, tot := Evaluate(res)
	fmt.Fprintf(&b, "totals=%+v\n", tot)
	for i, lr := range layers {
		fmt.Fprintf(&b, "layer%d: so=%d tip=%d hard=%d conf=%d\n",
			i, lr.SideOverlayNM, lr.TipOverlayNM, lr.HardOverlays, len(lr.Conflicts))
	}
	return b.String(), tr.String()
}

// traceDiff reports the first byte at which two traces diverge, with
// context on both sides.
func traceDiff(want, got string) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo := max(i-120, 0)
	return fmt.Sprintf("first divergence at byte %d:\n--- want\n...%s\n--- got\n...%s",
		i, want[lo:min(i+120, len(want))], got[lo:min(i+120, len(got))])
}

// TestRipupEquivalenceMatrix holds the router's one opt-in lever, the
// sparse corridor search, at its default HPWL gate to the plain run byte
// for byte: paths, colors, overlay totals, every counter, the per-net
// attribution table (rip-up counts included) and the raw JSONL trace
// stream. These instances stay below the gate, so the lever must be a
// no-op inside the rip-up-and-reroute loop.
func TestRipupEquivalenceMatrix(t *testing.T) {
	specs := eqSpecs[:1]
	if !testing.Short() {
		specs = eqSpecs[:2]
	}
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			want, wantTr := routeDump(t, sp, Defaults())
			opt := Defaults()
			opt.SparseSearch = true
			got, gotTr := routeDump(t, sp, opt)
			if got != want {
				t.Fatalf("sparse diverges from the dense baseline:\n--- baseline\n%s\n--- got\n%s", want, got)
			}
			if gotTr != wantTr {
				t.Fatalf("sparse: trace diverges from the dense baseline: %s", traceDiff(wantTr, gotTr))
			}
		})
	}
}

// TestIntraParallelMatchesSerial holds in-process parallelism to the
// serial bar: several goroutines routing the same instance at once — the
// shape of sadpd's worker pool and the -jobs harness, where concurrent
// runs share the process-wide decomposition engine pool — must each
// reproduce a lone serial run byte for byte: paths, colors, overlay
// totals, counters, per-net attribution and the JSONL trace. CI runs it
// under -race, which also checks that the pool never hands one engine to
// two runs.
func TestIntraParallelMatchesSerial(t *testing.T) {
	const runs = 4
	for _, sp := range eqSpecs {
		t.Run(sp.Name, func(t *testing.T) {
			want, wantTr := routeDump(t, sp, Defaults())
			var wg sync.WaitGroup
			got := make([]string, runs)
			gotTr := make([]string, runs)
			for i := range runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], gotTr[i] = routeDump(t, sp, Defaults())
				}()
			}
			wg.Wait()
			for i := range runs {
				if got[i] != want {
					t.Fatalf("concurrent run %d diverges from serial:\n--- serial\n%s\n--- run %d\n%s", i, want, i, got[i])
				}
				if gotTr[i] != wantTr {
					t.Fatalf("concurrent run %d: trace diverges from serial: %s", i, traceDiff(wantTr, gotTr[i]))
				}
			}
		})
	}
}

// TestDecompCacheEngages guards against the router's verdict memo, whose
// counters keep the decomp.cache_* names, silently degenerating to
// all-misses on the public Route path: across the equivalence suite the
// window checks and repair passes must score hits, and the oracle must
// still run on misses.
func TestDecompCacheEngages(t *testing.T) {
	var hits, misses int64
	for _, sp := range eqSpecs {
		opt := Defaults()
		rec := NewRecorder()
		opt.Obs = rec
		Route(Generate(sp), Node10nm(), opt)
		snap := rec.Snapshot()
		hits += snap.Counter(obs.CtrDecompMemoHits)
		misses += snap.Counter(obs.CtrDecompMemoMisses)
	}
	if hits == 0 {
		t.Fatal("no window check or repair pass ever hit the memo: the memo path is degenerate")
	}
	if misses == 0 {
		t.Fatal("no memo misses recorded: the oracle never actually ran")
	}
	t.Logf("memo engaged: %d hits, %d misses (%.1f%% hit rate)",
		hits, misses, 100*float64(hits)/float64(hits+misses))
}
