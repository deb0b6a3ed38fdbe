package decomp_test

import (
	"reflect"
	"testing"

	"sadproute/internal/decomp"
	"sadproute/internal/geom"
	"sadproute/internal/rules"
)

// fuzzLayout decodes arbitrary bytes into a small layout: wire-like rects
// (on- or off-grid — the oracle must stay robust either way) with fuzzed
// colors. The decoding is total: every byte string yields a valid input.
func fuzzLayout(data []byte) decomp.Layout {
	ds := rules.Node10nm()
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	ly := decomp.Layout{
		Rules: ds,
		Die:   geom.Rect{X0: -400, Y0: -400, X1: 1600, Y1: 1600},
	}
	n := 1 + next()%6
	for i := 0; i < n; i++ {
		color := decomp.Color(next() % 3) // Unassigned, Core, Second
		var rects []geom.Rect
		for k := 0; k < 1+next()%2; k++ {
			x0 := next()*5 - 200
			y0 := next()*5 - 200
			w := 10 + next()%61
			h := 10 + next()%61
			rects = append(rects, geom.Rect{X0: x0, Y0: y0, X1: x0 + w, Y1: y0 + h})
		}
		ly.Pats = append(ly.Pats, decomp.Pattern{Net: i, Color: color, Rects: rects})
	}
	ly.NaiveAssists = next()%2 == 1
	return ly
}

// FuzzDecomposeCut stresses the decomposition oracle on arbitrary
// geometry: it must never panic, must be deterministic, its aggregate
// metrics must stay self-consistent, and CutVerdict must read the same
// verdict as the Result.
func FuzzDecomposeCut(f *testing.F) {
	f.Add([]byte{2, 1, 0, 10, 10, 5, 5, 2, 1, 60, 10, 5, 5})
	f.Add([]byte{5, 0, 1, 3, 3, 7, 9, 1, 1, 100, 100, 30, 30, 2, 0, 50, 50, 20, 20})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ly := fuzzLayout(data)
		res := decomp.DecomposeCut(ly)
		if again := decomp.DecomposeCut(ly); !reflect.DeepEqual(res, again) {
			t.Fatal("DecomposeCut is nondeterministic on identical input")
		}
		if res.SideOverlayNM < 0 || res.TipOverlayNM < 0 || res.HardOverlays < 0 {
			t.Fatalf("negative overlay metrics: %+v", res)
		}
		wantUnits := float64(res.SideOverlayNM) / float64(ly.Rules.WLine)
		if res.SideOverlayUnits != wantUnits {
			t.Fatalf("SideOverlayUnits=%v, want %v", res.SideOverlayUnits, wantUnits)
		}
		for _, m := range res.Materials {
			if m.Rect.Empty() {
				t.Fatalf("oracle emitted empty material rect %+v", m)
			}
		}
		var v decomp.Verdict
		decomp.CutVerdict(ly, nil, &v)
		checkVerdict(t, ly, res, v)
		// The trim decomposition shares the measurement core; keep it under
		// the same no-panic/determinism net.
		tr := decomp.DecomposeTrim(ly)
		if again := decomp.DecomposeTrim(ly); !reflect.DeepEqual(tr, again) {
			t.Fatal("DecomposeTrim is nondeterministic on identical input")
		}
	})
}
