package decomp_test

import (
	"reflect"
	"testing"

	"sadproute/internal/decomp"
	"sadproute/internal/geom"
	"sadproute/internal/obs"
	"sadproute/internal/rules"
)

// Incremental edits through the memo cache. The router's repair loop
// re-decomposes a layer after every reroute, so consecutive layouts
// differ by one net: a moved rect, a dropped net, a net put back where it
// was. These tests hold the cache to the full oracle across such edit
// sequences: an edited layout must never be served the entry of the
// layout it was edited from, and undoing an edit must hit again.

// wire returns a one-rect pattern for net at (x, y) with size w x h.
func wire(net int, c decomp.Color, x, y, w, h int) decomp.Pattern {
	return decomp.Pattern{Net: net, Color: c, Rects: []geom.Rect{{X0: x, Y0: y, X1: x + w, Y1: y + h}}}
}

// twoClusters builds a layout with two groups of nets far apart (1000 nm
// on a 40 nm pitch), so an edit to one group leaves the other group's
// geometry and verdict untouched: the smallest edit a reroute makes.
func twoClusters() decomp.Layout {
	return decomp.Layout{
		Rules: rules.Node10nm(),
		Die:   geom.Rect{X0: -400, Y0: -400, X1: 1600, Y1: 1600},
		Pats: []decomp.Pattern{
			wire(0, decomp.Core, 0, 0, 200, 20),
			wire(1, decomp.Second, 0, 40, 200, 20),
			wire(2, decomp.Core, 0, 1000, 200, 20),
			wire(3, decomp.Second, 0, 1040, 200, 20),
		},
	}
}

// editCounters returns the cache hit and miss counts plus the number of
// real oracle runs recorded so far.
func editCounters(rec *obs.Recorder) (hits, misses, runs int64) {
	s := rec.Snapshot()
	return s.Counter(obs.CtrDecompCacheHits), s.Counter(obs.CtrDecompCacheMisses), s.Counter(obs.CtrDecompositions)
}

// assertEdit decomposes base then edited through one Paranoid cache and
// checks the edit missed, ran the oracle, and matches a fresh full
// recompute in every field; it returns both cached Results.
func assertEdit(t *testing.T, c *decomp.Cache, rec *obs.Recorder, base, edited decomp.Layout) (*decomp.Result, *decomp.Result) {
	t.Helper()
	r0 := c.DecomposeCut(base, rec)
	r1 := c.DecomposeCut(edited, rec)
	if r1 == r0 {
		t.Fatal("edited layout was served the cached Result of the layout it was edited from")
	}
	if h, m, n := editCounters(rec); h != 0 || m != 2 || n != 2 {
		t.Fatalf("hits/misses/oracle runs = %d/%d/%d, want 0/2/2", h, m, n)
	}
	if want := decomp.DecomposeCut(edited); !reflect.DeepEqual(r1, want) {
		t.Fatalf("cached verdict of the edit diverges from a full recompute\ngot  %+v\nwant %+v", r1, want)
	}
	if err := c.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	return r0, r1
}

// TestIncrementalSpliceOnIsolatedChange: moving one net of the far
// cluster is invisible to the near cluster, yet the edited layout must
// miss the cache, match the full oracle, and then be the entry a repeat
// of the same layout hits.
func TestIncrementalSpliceOnIsolatedChange(t *testing.T) {
	lyA := twoClusters()
	lyB := twoClusters()
	lyB.Pats[2].Rects[0] = lyB.Pats[2].Rects[0].Translate(geom.Pt{X: 200})
	c := decomp.NewCache(0)
	c.Paranoid = true
	rec := obs.New()
	_, got := assertEdit(t, c, rec, lyA, lyB)
	if again := c.DecomposeCut(lyB, rec); again != got {
		t.Fatal("edited layout's Result was not memoized")
	}
}

// TestIncrementalSpliceOnNetRemoval: ripping up a net drops its pattern
// from the layer; the shorter layout must miss and match the full oracle.
func TestIncrementalSpliceOnNetRemoval(t *testing.T) {
	lyA := twoClusters()
	lyB := twoClusters()
	lyB.Pats = lyB.Pats[:3] // drop net 3 (far cluster's second pattern)
	c := decomp.NewCache(0)
	c.Paranoid = true
	assertEdit(t, c, obs.New(), lyA, lyB)
}

// TestIncrementalFallbackOnViolations: a layer whose verdict carries
// violations (an unassigned pattern) is cached like any other — an edit
// to it misses, keeps the violations the full oracle reports, and the
// unedited layout still hits its own entry.
func TestIncrementalFallbackOnViolations(t *testing.T) {
	ly := twoClusters()
	ly.Pats[0].Color = decomp.Unassigned // poisons the verdict
	mut := twoClusters()
	mut.Pats[0].Color = decomp.Unassigned
	mut.Pats[2].Rects[0] = mut.Pats[2].Rects[0].Translate(geom.Pt{X: 200})
	c := decomp.NewCache(0)
	c.Paranoid = true
	rec := obs.New()
	r0, r1 := assertEdit(t, c, rec, ly, mut)
	if len(r0.Violations) == 0 || len(r1.Violations) == 0 {
		t.Fatalf("unassigned pattern reported no violations (base %v, edit %v)", r0.Violations, r1.Violations)
	}
	if again := c.DecomposeCut(ly, rec); again != r0 {
		t.Fatal("violating baseline was not memoized")
	}
}

// TestIncrementalDeltaKeysHitCache: a net ripped up and rerouted back and
// forth between two placements re-uses both cached verdicts instead of
// re-running the oracle.
func TestIncrementalDeltaKeysHitCache(t *testing.T) {
	lyA := twoClusters()
	lyB := twoClusters()
	lyB.Pats[2].Rects[0] = lyB.Pats[2].Rects[0].Translate(geom.Pt{X: 200})
	c := decomp.NewCache(0)
	c.Paranoid = true
	rec := obs.New()
	rA, rB := assertEdit(t, c, rec, lyA, lyB)
	if c.DecomposeCut(lyA, rec) != rA || c.DecomposeCut(lyB, rec) != rB {
		t.Fatal("undoing and redoing the edit did not return the cached Results")
	}
	if h, m, n := editCounters(rec); h != 2 || m != 2 || n != 2 {
		t.Fatalf("hits/misses/oracle runs = %d/%d/%d, want 2/2/2", h, m, n)
	}
	if err := c.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
