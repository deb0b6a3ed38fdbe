package decomp

import (
	"sadproute/internal/geom"
	"sadproute/internal/interval"
)

// measureRect computes the overlay intervals on all four sides of one target
// rectangle and the cut conflicts the opposing cuts induce, appending both to
// res.
//
// A boundary section of a target is:
//   - interior, when another rectangle of the same pattern covers the field
//     immediately outside it (polygon fragmentation seams);
//   - protected, when the immediately-outside field belongs to the spacer,
//     i.e. lies within w_spacer (L-infinity) of core-mask material;
//   - an overlay otherwise: the section is defined directly by the cut mask,
//     either because raw field touches it or because merge/assist material
//     (which the cut removes) touches it.
//
// Overlays on the two short ends of a wire are tip overlays (non-critical);
// overlays on long sides are side overlays, hard when longer than w_line.
//
// One query per index serves all four sides: a target that covers the
// field row outside a side meets r.Expand(1), and material that touches or
// protects a side meets r.Expand(w_spacer+1). Each candidate list keeps
// only what meets its query box, in the index's callback order, which
// orders the abutment violations.
func (e *Engine) measureRect(ly Layout, ti int, res *Result) {
	ts, mats := e.ts, e.mats
	t := ts[ti]
	r := t.rect
	ds := ly.Rules
	ws := ds.WSpacer

	tq, mq := r.Expand(1), r.Expand(ws+1)
	near, mnear := e.near[:0], e.mnear[:0]
	e.tix.query(tq, func(oi int) {
		if oi != ti && ts[oi].rect.Intersects(tq) {
			near = append(near, oi)
		}
	})
	e.mix.query(mq, func(mi int) {
		if mats[mi].Rect.Intersects(mq) {
			mnear = append(mnear, mi)
		}
	})
	e.near, e.mnear = near, mnear

	var sideSets [4]*interval.Set // overlay intervals per side (engine scratch)

	for _, side := range [...]Side{SideLeft, SideRight, SideBottom, SideTop} {
		span, b, outPos, horiz := sideGeom(r, side)
		interior := &e.interior
		interior.Reset()
		covered := &e.covered
		covered.Reset()
		matTouch := &e.matTouch
		matTouch.Reset()

		// Same-pattern targets covering the outside row are polygon seams;
		// different-net targets there are abutment violations.
		for _, oi := range near {
			o := ts[oi]
			alo, ahi, plo, phi := project(o.rect, horiz)
			if !touches(b, plo, phi, outPos) {
				continue
			}
			iv := interval.Iv{Lo: alo, Hi: ahi}.Intersect(span)
			if iv.Empty() {
				continue
			}
			if o.pat != t.pat {
				res.addViolationNet(t.net, "targets of nets %d and %d abut at %v side %s", t.net, o.net, r, side)
				res.addViolationNet(o.net, "targets of nets %d and %d abut (mirror)", t.net, o.net)
			}
			interior.Add(iv)
		}

		// Core-mask material: touching material is cut-defined (overlay
		// unless it is this pattern's own printed core), nearby material
		// contributes spacer protection.
		for _, mi := range mnear {
			m := mats[mi]
			alo, ahi, plo, phi := project(m.Rect, horiz)
			if touches(b, plo, phi, outPos) {
				// Own-pattern core fragments are polygon seams, not cuts.
				if m.Kind == MatCoreTarget && m.Pat == t.pat {
					interior.Add(interval.Iv{Lo: alo, Hi: ahi}.Intersect(span))
				} else {
					matTouch.Add(interval.Iv{Lo: alo, Hi: ahi}.Intersect(span))
				}
				continue
			}
			if coveredPerp(b, plo, phi, outPos, ws) {
				covered.Add(interval.Iv{Lo: alo - ws, Hi: ahi + ws}.Intersect(span))
			}
		}

		// overlay = span - interior - (covered - matTouch)
		ov := &e.sideOv[side]
		ov.Reset()
		ov.Add(span)
		ov.SubtractSet(interior)
		prot := covered
		prot.SubtractSet(matTouch)
		ov.SubtractSet(prot)

		tip := isTip(r, side)
		sideSets[side] = ov
		for _, iv := range ov.Intervals() {
			o := Overlay{
				Pat: t.pat, Rect: r, Side: side,
				Lo: iv.Lo, Hi: iv.Hi, Tip: tip,
			}
			if tip {
				res.TipOverlayNM += iv.Len()
			} else {
				res.SideOverlayNM += iv.Len()
				if iv.Len() > ds.WLine {
					o.Hard = true
					res.HardOverlays++
				}
			}
			res.Overlays = append(res.Overlays, o)
		}
	}

	// Cut conflicts: cuts flanking the wire on opposite sides closer than
	// d_cut over the target (paper Section III-D). Opposite side overlays of
	// a w_line-wide wire are d_cut-violating by rule relation (2).
	addPairConflicts := func(a, bSide Side, across int) {
		if across >= ds.DCut {
			return
		}
		x := &e.xset
		x.Intersect(sideSets[a], sideSets[bSide])
		for _, iv := range x.Intervals() {
			res.Conflicts = append(res.Conflicts, CutConflict{
				Pat: t.pat, Rect: r, Lo: iv.Lo, Hi: iv.Hi,
				Tips: isTip(r, a),
			})
		}
	}
	addPairConflicts(SideLeft, SideRight, r.W())
	addPairConflicts(SideBottom, SideTop, r.H())
}

// sideGeom returns the span interval along a side, the boundary coordinate,
// whether outward is the positive direction, and whether the span runs along
// the X axis.
func sideGeom(r geom.Rect, s Side) (span interval.Iv, b int, outPos, horiz bool) {
	switch s {
	case SideLeft:
		return interval.Iv{Lo: r.Y0, Hi: r.Y1}, r.X0, false, false
	case SideRight:
		return interval.Iv{Lo: r.Y0, Hi: r.Y1}, r.X1, true, false
	case SideBottom:
		return interval.Iv{Lo: r.X0, Hi: r.X1}, r.Y0, false, true
	default: // SideTop
		return interval.Iv{Lo: r.X0, Hi: r.X1}, r.Y1, true, true
	}
}

// project returns o's extents along the span axis (alo, ahi) and the
// perpendicular axis (plo, phi).
func project(o geom.Rect, horiz bool) (alo, ahi, plo, phi int) {
	if horiz {
		return o.X0, o.X1, o.Y0, o.Y1
	}
	return o.Y0, o.Y1, o.X0, o.X1
}

// touches reports whether a rect with perpendicular extent [plo,phi) covers
// the field row immediately outside a boundary at coordinate b.
func touches(b, plo, phi int, outPos bool) bool {
	if outPos {
		return plo <= b && phi > b
	}
	return phi >= b && plo < b
}

// coveredPerp reports whether material at perpendicular extent [plo,phi)
// places spacer over the field immediately outside a boundary at b:
// within w_spacer outward (inclusive) or strictly within w_spacer inward.
func coveredPerp(b, plo, phi int, outPos bool, ws int) bool {
	if outPos {
		return plo-b <= ws && b-phi < ws
	}
	return b-phi <= ws && plo-b < ws
}

// isTip reports whether a side of r is a wire end cap rather than a long
// side. Square rects have no tips: every boundary is treated as a side.
func isTip(r geom.Rect, s Side) bool {
	switch r.Orient() {
	case geom.OrientH:
		return s == SideLeft || s == SideRight
	case geom.OrientV:
		return s == SideTop || s == SideBottom
	default:
		return false
	}
}
