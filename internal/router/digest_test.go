package router_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"sadproute/internal/bench"
)

// wantRouteDigest pins the router's output on the digest corpus. Re-pin it
// only for a change that means to alter routes, colors or counters outside
// decomp.*, or that moves only A*'s search work (then
// wantRouteMaskedDigest stays), and say so.
const wantRouteDigest = "dd196d80d7fc116fe61c42a6b2a640bde682e4a4a1790a69d9ad8bf1371449f2"

// wantRouteMaskedDigest pins the same corpus with A*'s search work masked
// (routeRun.dump's maskSearch). A change that only makes searches expand
// fewer nodes re-pins wantRouteDigest and must leave this one unchanged.
const wantRouteMaskedDigest = "5e4a1e2b70d02de56432900b5064959555cbcd56603afe379734acf50b577377"

// servedDigestSeeds are the generator seeds of the first ten jobs of
// perfbench's served workload at seed 1.
const servedDigestSeeds = 10

// servedDigestSpec is sadpload's generator profile (60 nets on 32 tracks),
// the profile perfbench's served workload routes.
func servedDigestSpec(seed int64) bench.Spec {
	return bench.Spec{Name: fmt.Sprintf("served-%d", seed), Nets: 60, Tracks: 32, Layers: 3, Seed: seed,
		PinCandidates: 1, AvgHPWL: 32 / 4, Blockages: 2}
}

// TestRouteDigest hashes one SHA-256 over what routeRun.dump renders of
// every run in the corpus — totals, paths, colors, the per-net table and
// every counter, gauge and histogram outside decomp.* — for the
// equivalence instances, the congested instance and the first served
// jobs, and a second one over the same dumps with the search work masked.
// The trace is left out: a window that is clean with its new net carries
// no baseline badness. A speed-up of the router's checks must leave both
// digests unchanged.
func TestRouteDigest(t *testing.T) {
	specs := append(append([]bench.Spec{}, memoSpecs...), congestedSpec)
	for i := range servedDigestSeeds {
		specs = append(specs, servedDigestSpec(1001+int64(i)))
	}
	full, masked := sha256.New(), sha256.New()
	for _, sp := range specs {
		run := routeSpec(t, sp)
		fmt.Fprintf(full, "%s\n%s", sp.Name, run.dump(false))
		fmt.Fprintf(masked, "%s\n%s", sp.Name, run.dump(true))
	}
	if got := hex.EncodeToString(masked.Sum(nil)); got != wantRouteMaskedDigest {
		t.Errorf("search-masked route digest = %s, want %s", got, wantRouteMaskedDigest)
	}
	if got := hex.EncodeToString(full.Sum(nil)); got != wantRouteDigest {
		t.Errorf("route digest = %s, want %s", got, wantRouteDigest)
	}
}
