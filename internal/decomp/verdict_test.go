package decomp_test

import (
	"math/rand"
	"slices"
	"testing"

	"sadproute/internal/decomp"
	"sadproute/internal/geom"
)

// checkVerdict fails t unless v is the verdict read off res, the Result of
// the same layout: the badness, the conflict rects in order, and the
// conflict nets, then the hard-overlay nets, then BadNets.
func checkVerdict(t *testing.T, ly decomp.Layout, res *decomp.Result, v decomp.Verdict) {
	t.Helper()
	var rects []geom.Rect
	var nets []int
	for _, cf := range res.Conflicts {
		rects = append(rects, cf.Rect)
		nets = append(nets, ly.Pats[cf.Pat].Net)
	}
	for _, ov := range res.Overlays {
		if ov.Hard {
			nets = append(nets, ly.Pats[ov.Pat].Net)
		}
	}
	nets = append(nets, res.BadNets...)
	if bad := len(res.Conflicts) + len(res.Violations) + res.HardOverlays; v.Bad != bad {
		t.Fatalf("verdict badness %d, Result %d", v.Bad, bad)
	}
	if !slices.Equal(v.Conflicts, rects) {
		t.Fatalf("verdict conflicts %v, Result %v", v.Conflicts, rects)
	}
	if !slices.Equal(v.Nets, nets) {
		t.Fatalf("verdict nets %v, Result %v", v.Nets, nets)
	}
}

// TestVerdictMatchesResult holds CutVerdict to DecomposeCut on
// TestDecomposeDigest's corpus and on benchLayouts' routed layers: one
// engine alternates the two entries, and one Verdict is reused for every
// layout, so neither entry may leak state into the next call.
func TestVerdictMatchesResult(t *testing.T) {
	var e decomp.Engine
	var v decomp.Verdict
	check := func(ly decomp.Layout) {
		res := e.DecomposeCut(ly, nil)
		e.CutVerdict(ly, nil, &v)
		checkVerdict(t, ly, res, v)
	}
	rng := rand.New(rand.NewSource(19))
	bad := 0
	for range digestLayouts {
		ly := digestLayout(rng)
		check(ly)
		if v.Bad > 0 {
			bad++
		}
	}
	for _, ly := range benchLayouts(t) {
		check(ly)
	}
	if bad == 0 {
		t.Fatal("no corpus layout is bad: the corpus does not exercise the verdict")
	}
}

// TestVerdictAllocatesNothing: a warm engine's verdict on a routed window,
// written into a warm Verdict, makes no allocation.
func TestVerdictAllocatesNothing(t *testing.T) {
	ly := benchWindow(t)
	var e decomp.Engine
	var v decomp.Verdict
	e.CutVerdict(ly, nil, &v)
	if n := testing.AllocsPerRun(100, func() { e.CutVerdict(ly, nil, &v) }); n != 0 {
		t.Fatalf("a warm verdict allocates %.1f objects, want 0", n)
	}
}
