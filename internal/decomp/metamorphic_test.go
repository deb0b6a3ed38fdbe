package decomp_test

import (
	"testing"

	"sadproute/internal/bench"
	"sadproute/internal/decomp"
	"sadproute/internal/geom"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// The metamorphic suite checks the oracle's geometric equivariance: the
// decomposition verdict (hard overlays, cut conflicts, violations) and
// the total overlay lengths are properties of the layout's shape, so
// rigid transforms of the plane — translation and horizontal mirroring —
// must not change them. Scan order, tie-breaking and indexing inside the
// oracle are all coordinate-driven, which makes these transforms sharp
// detectors of accidental left/right or origin bias.

// verdict is the transform-invariant signature of a decomposition.
type verdict struct {
	SideNM, TipNM       int
	Hard, Conf, Viol    int
	Overlays, Materials int
}

func verdictOf(r *decomp.Result) verdict {
	return verdict{
		SideNM:    r.SideOverlayNM,
		TipNM:     r.TipOverlayNM,
		Hard:      r.HardOverlays,
		Conf:      len(r.Conflicts),
		Viol:      len(r.Violations),
		Overlays:  len(r.Overlays),
		Materials: len(r.Materials),
	}
}

func translateLayout(ly decomp.Layout, dx, dy int) decomp.Layout {
	d := geom.Pt{X: dx, Y: dy}
	out := ly
	out.Die = ly.Die.Translate(d)
	out.Pats = make([]decomp.Pattern, len(ly.Pats))
	for i, p := range ly.Pats {
		q := p
		q.Rects = make([]geom.Rect, len(p.Rects))
		for j, r := range p.Rects {
			q.Rects[j] = r.Translate(d)
		}
		out.Pats[i] = q
	}
	return out
}

// mirrorLayout reflects the layout (die included) about the vertical
// axis that maps routing track x onto track W-1-x, i.e. x -> S-x in nm
// with S = Die.X0 + Die.X1 - pitch + w_line. Grid-aligned wires map to
// grid-aligned wires, so the mirrored layout is exactly what routing the
// mirrored instance would produce — the invariance the suite asserts is
// over grid transforms, not arbitrary sub-track reflections.
func mirrorLayout(ly decomp.Layout) decomp.Layout {
	s := ly.Die.X0 + ly.Die.X1 - ly.Rules.Pitch() + ly.Rules.WLine
	flip := func(r geom.Rect) geom.Rect {
		return geom.Rect{X0: s - r.X1, Y0: r.Y0, X1: s - r.X0, Y1: r.Y1}
	}
	out := ly
	out.Die = flip(ly.Die)
	out.Pats = make([]decomp.Pattern, len(ly.Pats))
	for i, p := range ly.Pats {
		q := p
		q.Rects = make([]geom.Rect, len(p.Rects))
		for j, r := range p.Rects {
			q.Rects[j] = flip(r)
		}
		out.Pats[i] = q
	}
	return out
}

// metamorphicLayouts routes two small benchmarks and returns every
// non-empty per-layer layout — realistic colored geometry with assists,
// bridges, and a few residual overlays to keep the totals non-trivial.
func metamorphicLayouts(t *testing.T) []decomp.Layout {
	t.Helper()
	ds := rules.Node10nm()
	specs := []bench.Spec{
		{Name: "metaA", Nets: 90, Tracks: 40, Layers: 3, Seed: 401, PinCandidates: 1, AvgHPWL: 5, Blockages: 2},
		{Name: "metaB", Nets: 70, Tracks: 36, Layers: 3, Seed: 402, PinCandidates: 2, AvgHPWL: 6, Blockages: 1},
	}
	var out []decomp.Layout
	for _, sp := range specs {
		res := router.Route(bench.Generate(sp), ds, router.Defaults())
		if res.Routed == 0 {
			t.Fatalf("%s: routed nothing", sp.Name)
		}
		for _, ly := range res.Layouts() {
			if len(ly.Pats) > 0 {
				out = append(out, ly)
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no layouts generated")
	}
	return out
}

// TestDecompTranslationInvariance: translating the layout by whole
// routing pitches preserves the verdict. (Sub-pitch offsets can flip the
// parity of midpoint divisions inside the oracle and are not part of the
// invariance contract — the routing grid itself moves in pitch steps.)
func TestDecompTranslationInvariance(t *testing.T) {
	p := rules.Node10nm().Pitch()
	offsets := []geom.Pt{{X: p, Y: -2 * p}, {X: -100 * p, Y: 100 * p}, {X: 3 * p, Y: p}}
	for i, ly := range metamorphicLayouts(t) {
		base := verdictOf(decomp.DecomposeCut(ly))
		for _, d := range offsets {
			got := verdictOf(decomp.DecomposeCut(translateLayout(ly, d.X, d.Y)))
			if got != base {
				t.Errorf("layout %d translate %v: verdict changed\nbase: %+v\ngot:  %+v", i, d, base, got)
			}
		}
	}
}

// TestDecompMirrorInvariance: reflecting the layout about the die's
// vertical center line preserves the verdict. Mirroring twice must also
// reproduce the original layout's result exactly (involution).
func TestDecompMirrorInvariance(t *testing.T) {
	for i, ly := range metamorphicLayouts(t) {
		base := verdictOf(decomp.DecomposeCut(ly))
		m := mirrorLayout(ly)
		got := verdictOf(decomp.DecomposeCut(m))
		if got != base {
			t.Errorf("layout %d mirror: verdict changed\nbase: %+v\ngot:  %+v", i, base, got)
		}
		back := verdictOf(decomp.DecomposeCut(mirrorLayout(m)))
		if back != base {
			t.Errorf("layout %d double-mirror: verdict changed\nbase: %+v\ngot:  %+v", i, base, back)
		}
	}
}

// TestIncrementalMetamorphicInvariance replays the repair loop's edit
// through the memo cache for every routed layout — first the layout minus
// one net, then the full layout — and asserts the cached verdict of the
// edited layout equals the full oracle's and is invariant under
// pitch-multiple translation and mirroring, the transforms the plain
// oracle is checked against above.
func TestIncrementalMetamorphicInvariance(t *testing.T) {
	p := rules.Node10nm().Pitch()
	transforms := []struct {
		name string
		f    func(decomp.Layout) decomp.Layout
	}{
		{"identity", func(l decomp.Layout) decomp.Layout { return l }},
		{"translate", func(l decomp.Layout) decomp.Layout { return translateLayout(l, 3*p, -2*p) }},
		{"mirror", mirrorLayout},
	}
	for i, ly := range append(metamorphicLayouts(t), twoClusters()) {
		if len(ly.Pats) < 2 {
			continue
		}
		base := verdictOf(decomp.DecomposeCut(ly))
		drop := len(ly.Pats) / 2
		for _, tr := range transforms {
			full := tr.f(ly)
			prev := full
			prev.Pats = append(append([]decomp.Pattern(nil), full.Pats[:drop]...), full.Pats[drop+1:]...)
			c := decomp.NewCache(0)
			c.Paranoid = true
			before := c.DecomposeCut(prev, nil)
			res := c.DecomposeCut(full, nil)
			if res == before {
				t.Errorf("layout %d %s: full layout was served the cached Result of the layout minus net %d",
					i, tr.name, full.Pats[drop].Net)
			}
			if got := verdictOf(res); got != base {
				t.Errorf("layout %d %s: cached verdict changed\nbase: %+v\ngot:  %+v", i, tr.name, base, got)
			}
			if err := c.CheckIntegrity(); err != nil {
				t.Errorf("layout %d %s: %v", i, tr.name, err)
			}
		}
	}
}

// TestDecompNaiveAssistsInvariance repeats both transforms with the
// ref.-[16]-style naive assist synthesis, which exercises the merge-heavy
// code paths the optimized synthesis avoids.
func TestDecompNaiveAssistsInvariance(t *testing.T) {
	layouts := metamorphicLayouts(t)
	for i, ly := range layouts {
		ly.NaiveAssists = true
		base := verdictOf(decomp.DecomposeCut(ly))
		p := ly.Rules.Pitch()
		for name, tr := range map[string]decomp.Layout{
			"translate": translateLayout(ly, 3*p, -7*p),
			"mirror":    mirrorLayout(ly),
		} {
			got := verdictOf(decomp.DecomposeCut(tr))
			if got != base {
				t.Errorf("layout %d naive %s: verdict changed\nbase: %+v\ngot:  %+v", i, name, base, got)
			}
		}
	}
}
