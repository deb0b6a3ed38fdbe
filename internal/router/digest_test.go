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
// decomp.*, and say so.
const wantRouteDigest = "12f1c7daa926acb7ad236730f5b72db1664b6891184baeb71ad67f7e95e82307"

// servedDigestSeeds are the generator seeds of the first ten jobs of
// perfbench's served workload at seed 1.
const servedDigestSeeds = 10

// servedDigestSpec is sadpload's generator profile (60 nets on 32 tracks),
// the profile perfbench's served workload routes.
func servedDigestSpec(seed int64) bench.Spec {
	return bench.Spec{Name: fmt.Sprintf("served-%d", seed), Nets: 60, Tracks: 32, Layers: 3, Seed: seed,
		PinCandidates: 1, AvgHPWL: 32 / 4, Blockages: 2}
}

// TestRouteDigest hashes one SHA-256 over what memoDump renders of every
// run in the corpus — totals, paths, colors, the per-net table and every
// counter, gauge and histogram outside decomp.* — for the equivalence
// instances, the congested instance and the first served jobs. The trace
// is left out: a window that is clean with its new net carries no
// baseline badness. A speed-up of the router's checks must leave the
// digest unchanged.
func TestRouteDigest(t *testing.T) {
	specs := append(append([]bench.Spec{}, memoSpecs...), congestedSpec)
	for i := range servedDigestSeeds {
		specs = append(specs, servedDigestSpec(1001+int64(i)))
	}
	h := sha256.New()
	for _, sp := range specs {
		dump, _, _ := memoDump(t, sp)
		fmt.Fprintf(h, "%s\n%s", sp.Name, dump)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantRouteDigest {
		t.Fatalf("route digest = %s, want %s", got, wantRouteDigest)
	}
}
