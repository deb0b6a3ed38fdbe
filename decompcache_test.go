package sadp

import (
	"bytes"
	"fmt"
	"testing"

	"sadproute/internal/obs"
)

// cacheSpecs are the benchmarks of the decomposition cache equivalence
// suite: varied density, pin multiplicity and blockage count, small enough
// that each routes twice in seconds.
var cacheSpecs = []Spec{
	{Name: "eqA", Nets: 140, Tracks: 56, Layers: 3, Seed: 301, PinCandidates: 1, AvgHPWL: 5, Blockages: 2},
	{Name: "eqB", Nets: 120, Tracks: 48, Layers: 3, Seed: 302, PinCandidates: 2, AvgHPWL: 6, Blockages: 3},
	{Name: "eqC", Nets: 200, Tracks: 72, Layers: 3, Seed: 303, PinCandidates: 3, AvgHPWL: 7, Blockages: 4},
}

// routeDump routes one spec under opt and returns a canonical dump of
// everything observable about the run — paths, colors, wirelength,
// decomposition totals, obs counters, per-net attribution — plus the raw
// JSONL trace bytes. Stage times and CPU are wall-clock and excluded. The
// decomp.* family is zeroed (a cache hit returns the stored Result without
// re-running the oracle, so the work counters legitimately differ); every
// other counter must match across configurations. Failures are reported
// with t.Errorf, so concurrent callers may share t.
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
	// Paranoid mode kept a deep copy of every cached Result; nil otherwise.
	if err := res.DecompCacheCheck(); err != nil {
		t.Errorf("%s: %v", sp.Name, err)
	}
	snap := rec.Snapshot()
	snap.ZeroFamily("decomp.")
	var b bytes.Buffer
	fmt.Fprintf(&b, "routed=%d failed=%d wl=%d vias=%d\n",
		res.Routed, res.Failed, res.WirelengthCells, res.Vias)
	b.WriteString(snap.CountersString())
	// Per-net attribution happens in the router's commit loop and never in
	// the oracle, so the table must be identical with the cache on or off.
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

// cacheOpts returns the defaults with the decomposition cache set.
func cacheOpts(cache bool) Options {
	opt := Defaults()
	opt.DecompCache = cache
	return opt
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

// TestDecompCacheMatchesUncached is the tentpole's equivalence guarantee:
// routing with the decomposition memo cache (Options.DecompCache, the
// default) produces a byte-identical result — paths, colors, overlay
// totals, every non-decomp counter, and the JSONL trace stream — to the
// uncached oracle. CI also diffs the experiment harness's golden tables
// with the cache off against the committed (cached) goldens.
func TestDecompCacheMatchesUncached(t *testing.T) {
	for _, sp := range cacheSpecs {
		t.Run(sp.Name, func(t *testing.T) {
			want, wantTr := routeDump(t, sp, cacheOpts(false))
			got, gotTr := routeDump(t, sp, cacheOpts(true))
			if got != want {
				t.Fatalf("cached run diverges from uncached:\n--- uncached\n%s\n--- cached\n%s", want, got)
			}
			if gotTr != wantTr {
				t.Fatalf("cached trace diverges from uncached: %s", traceDiff(wantTr, gotTr))
			}
		})
	}
}

// TestDecompCacheEngages guards against the cache silently degenerating
// to all-misses: across the equivalence suite, the window-check and
// final-metrics paths must score a substantial number of hits, or the
// equivalence test above proves nothing about the hit path.
func TestDecompCacheEngages(t *testing.T) {
	var hits, misses int64
	for _, sp := range cacheSpecs {
		nl := Generate(sp)
		opt := Defaults()
		rec := NewRecorder()
		opt.Obs = rec
		res := Route(nl, Node10nm(), opt)
		EvaluateR(res, rec)
		snap := rec.Snapshot()
		hits += snap.Counter(obs.CtrDecompCacheHits)
		misses += snap.Counter(obs.CtrDecompCacheMisses)
	}
	if hits == 0 {
		t.Fatal("no window check or evaluation ever hit the cache: the memo path is degenerate")
	}
	if misses == 0 {
		t.Fatal("no cache misses recorded: the oracle never actually ran")
	}
	t.Logf("cache engaged: %d hits, %d misses (%.1f%% hit rate)",
		hits, misses, 100*float64(hits)/float64(hits+misses))
}

// TestDecompCacheResultsImmutable enforces the shared-Result contract:
// after a full routing run plus evaluation under Options.DecompParanoid,
// every cached Result still matches the deep copy taken when it was
// stored — no router or metrics code wrote through shared cache data —
// and the check itself provably detects such a write.
func TestDecompCacheResultsImmutable(t *testing.T) {
	sp := cacheSpecs[0]
	nl := Generate(sp)
	opt := Defaults()
	opt.DecompParanoid = true
	res := Route(nl, Node10nm(), opt)
	layers, _ := Evaluate(res) // final metrics also run through the caches
	if err := res.DecompCacheCheck(); err != nil {
		t.Fatalf("routing or evaluation mutated a cached Result: %v", err)
	}
	// Prove the check has teeth: a write through a shared Result — exactly
	// what the sadplint immutable rule forbids — must be detected.
	layers[0].SideOverlayNM++ //lint:allow immutable deliberate forbidden write: proves DecompCacheCheck detects mutation
	if err := res.DecompCacheCheck(); err == nil {
		t.Fatal("mutating a cached Result went undetected")
	}
	layers[0].SideOverlayNM-- //lint:allow immutable restores the deliberate write above
	if err := res.DecompCacheCheck(); err != nil {
		t.Fatalf("restored cache still flagged: %v", err)
	}
}
