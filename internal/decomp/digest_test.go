package decomp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"sadproute/internal/decomp"
	"sadproute/internal/geom"
	"sadproute/internal/rules"
)

// digestLayouts is the size of TestDecomposeDigest's random corpus.
const digestLayouts = 3000

// wantDigest pins the oracle's output on the digest corpus. Re-pin it only
// for a change that means to alter decompositions, and say so.
const wantDigest = "8380616656cc2405f99f7aaa752547e247ee8ac91554327fbe80eba58a087c71"

// TestDecomposeDigest hashes every field of DecomposeCut and DecomposeTrim
// results — overlays, conflicts, violations and bad nets in order,
// materials, blobs and the totals — over a fixed seeded corpus: random
// layouts with unassigned colors, abutting patterns and off-grid rects
// (some with NaiveAssists, a few spread far enough to coarsen the index
// grid), then the routed layers of benchLayouts' instance. A speed-up of
// the oracle must leave the digest unchanged.
func TestDecomposeDigest(t *testing.T) {
	var e decomp.Engine
	h := sha256.New()
	add := func(ly decomp.Layout) {
		fmt.Fprintf(h, "%+v\n%+v\n", *e.DecomposeCut(ly, nil), *e.DecomposeTrim(ly))
	}
	rng := rand.New(rand.NewSource(19))
	for range digestLayouts {
		add(digestLayout(rng))
	}
	for _, ly := range benchLayouts(t) {
		add(ly)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Fatalf("oracle digest = %s, want %s", got, wantDigest)
	}
}

// digestLayout draws one random layout: 1–12 patterns of 1–3 rects each,
// mixing on-grid wires, off-grid rects and rects abutting an earlier rect
// of any pattern, with colors drawn from Unassigned, Core and Second.
func digestLayout(rng *rand.Rand) decomp.Layout {
	ds := rules.Node10nm()
	p, w := ds.Pitch(), ds.WLine
	ly := decomp.Layout{Rules: ds,
		Die:          geom.Rect{X0: -200, Y0: -200, X1: 1800, Y1: 1800},
		NaiveAssists: rng.Intn(4) == 0}
	var all []geom.Rect
	for n := range 1 + rng.Intn(12) {
		pat := decomp.Pattern{Net: n, Color: decomp.Color(rng.Intn(3))}
		if rng.Intn(3) > 0 && pat.Color == decomp.Unassigned {
			pat.Color = decomp.Color(1 + rng.Intn(2))
		}
		for range 1 + rng.Intn(3) {
			var r geom.Rect
			switch k := rng.Intn(6); {
			case k < 3: // on-grid wire
				fixed, c0 := rng.Intn(40), rng.Intn(40)
				c1 := c0 + rng.Intn(8)
				if rng.Intn(2) == 0 {
					r = geom.Rect{X0: c0 * p, Y0: fixed * p, X1: c1*p + w, Y1: fixed*p + w}
				} else {
					r = geom.Rect{X0: fixed * p, Y0: c0 * p, X1: fixed*p + w, Y1: c1*p + w}
				}
			case k < 5 || len(all) == 0: // off-grid rect
				x0, y0 := rng.Intn(1600)-100, rng.Intn(1600)-100
				r = geom.Rect{X0: x0, Y0: y0, X1: x0 + 5 + rng.Intn(120), Y1: y0 + 5 + rng.Intn(120)}
			default: // abut an earlier rect on one of its sides
				o := all[rng.Intn(len(all))]
				dw, dh := 10+rng.Intn(60), 10+rng.Intn(60)
				switch rng.Intn(4) {
				case 0:
					r = geom.Rect{X0: o.X1, Y0: o.Y0, X1: o.X1 + dw, Y1: o.Y0 + dh}
				case 1:
					r = geom.Rect{X0: o.X0 - dw, Y0: o.Y1 - dh, X1: o.X0, Y1: o.Y1}
				case 2:
					r = geom.Rect{X0: o.X0, Y0: o.Y1, X1: o.X0 + dw, Y1: o.Y1 + dh}
				default:
					r = geom.Rect{X0: o.X1 - dw, Y0: o.Y0 - dh, X1: o.X1, Y1: o.Y0}
				}
			}
			if rng.Intn(50) == 0 { // far away: the index grid coarsens
				r = r.Translate(geom.Pt{X: 1 << 30})
			}
			all = append(all, r)
			pat.Rects = append(pat.Rects, r)
		}
		ly.Pats = append(ly.Pats, pat)
	}
	return ly
}
