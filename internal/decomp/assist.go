package decomp

import (
	"slices"

	"sadproute/internal/geom"
	"sadproute/internal/interval"
	"sadproute/internal/rules"
)

// tgt is one target rectangle with its ownership metadata.
type tgt struct {
	pat   int
	net   int
	color Color
	rect  geom.Rect
}

// collectTargets flattens the layout's patterns into the engine's target
// list plus a spatial index over it. Unassigned patterns are recorded as
// violations and treated as core so that processing can continue.
func (e *Engine) collectTargets(ly Layout, res *Result) {
	e.ts = e.ts[:0]
	for pi, p := range ly.Pats {
		c := p.Color
		if c == Unassigned {
			res.addViolationNet(p.Net, "pattern %d (net %d) has no mask assignment", pi, p.Net)
			c = Core
		}
		for _, r := range p.Rects {
			if r.Empty() {
				continue
			}
			e.ts = append(e.ts, tgt{pat: pi, net: p.Net, color: c, rect: r})
		}
	}
	e.tix.reset(indexCell(ly))
	for i, t := range e.ts {
		e.tix.add(i, t.rect)
	}
}

func indexCell(ly Layout) int {
	// A handful of track pitches per bucket keeps proximity queries local.
	return 5 * ly.Rules.Pitch()
}

// buildAssists synthesizes assistant core patterns for every second-colored
// target rectangle: the four slabs of the L-infinity ring at spacer distance
// w_spacer with width w_core. The synthesis applies the paper's implicit
// optimization policy:
//
//   - Tip slabs (protecting a wire end cap) are dropped when they would
//     merge with a foreign core target: a tip overlay is non-critical, so
//     trading it away avoids the merge-induced side overlay on the core.
//   - Side slabs are trimmed back to d_core clearance from a foreign core
//     target when the trimmed slab still spans the entire side it protects
//     (the wrap-around overhang is sacrificed); when the side would lose
//     flank coverage the merge is unavoidable — exactly the paper's type
//     2-b mechanism ("the assistant core patterns must be merged").
//   - No slab may come closer than w_spacer to ANY second target (its
//     spacer would destroy that target); the slab's own pattern sits at
//     exactly w_spacer, the self-aligned fit.
//   - Slabs never overlap core targets (subtracted), respect the die, and
//     every surviving piece obeys the core minimum width w_core.
//
// Assist-assist proximity is left to the merge stage: merged or bridged
// assists are harmless because the cut boundary then touches no target.
// Surviving slabs append to e.mats.
//
// One index query per second target serves the shape and keep-out steps of
// all four slabs: every slab lies within r.Expand(w_spacer+w_core), and
// each step looks at most max(d_core, w_spacer) beyond its slab. The list
// is sorted into target order once; each step skips the targets too far
// to change its slab.
func (e *Engine) buildAssists(ly Layout) {
	ds := ly.Rules
	ws, wc := ds.WSpacer, ds.WCore
	out0, out1 := ws, ws+wc
	reach := out1 + max(ds.DCore, ws)
	ts := e.ts
	for _, t := range ts {
		if t.color != Second {
			continue
		}
		r := t.rect
		// Subtract and trim in target order, not index-bucket order: the
		// union is order-independent but the rect decomposition (and with
		// it which slivers fall under the w_core minimum) is not, nor is
		// the trim sequence, and bucket scan order follows absolute
		// coordinates.
		near := e.near[:0]
		e.tix.query(r.Expand(reach), func(oi int) { near = append(near, oi) })
		slices.Sort(near)
		e.near = near
		type slab struct {
			rect  geom.Rect
			horiz bool        // slab's long axis runs along X
			span  interval.Iv // the side interval the slab must flank
			tip   bool
		}
		slabs := [4]slab{
			{geom.Rect{X0: r.X0 - out1, Y0: r.Y0 - out1, X1: r.X0 - out0, Y1: r.Y1 + out1},
				false, interval.Iv{Lo: r.Y0, Hi: r.Y1}, isTip(r, SideLeft)},
			{geom.Rect{X0: r.X1 + out0, Y0: r.Y0 - out1, X1: r.X1 + out1, Y1: r.Y1 + out1},
				false, interval.Iv{Lo: r.Y0, Hi: r.Y1}, isTip(r, SideRight)},
			{geom.Rect{X0: r.X0 - out1, Y0: r.Y0 - out1, X1: r.X1 + out1, Y1: r.Y0 - out0},
				true, interval.Iv{Lo: r.X0, Hi: r.X1}, isTip(r, SideBottom)},
			{geom.Rect{X0: r.X0 - out1, Y0: r.Y1 + out0, X1: r.X1 + out1, Y1: r.Y1 + out1},
				true, interval.Iv{Lo: r.X0, Hi: r.X1}, isTip(r, SideTop)},
		}
		for _, sl := range slabs {
			f, ok := sl.rect, true
			if !ly.NaiveAssists {
				f, ok = e.shapeSlab(ds, sl.rect, sl.horiz, sl.span, sl.tip, t.pat, near)
			}
			if !ok {
				continue
			}
			f = f.Intersect(ly.Die)
			if f.Empty() {
				continue
			}
			// Every piece lies in f, so a keep-out that misses f leaves
			// the pieces as they are.
			pieces := append(e.pieces[:0], f)
			for _, oi := range near {
				if len(pieces) == 0 {
					break
				}
				o := ts[oi]
				sub := o.rect
				if o.color == Second {
					sub = o.rect.Expand(ws)
				}
				if sub.Intersects(f) {
					pieces = geom.SubtractAll(pieces, []geom.Rect{sub})
				}
			}
			for _, pc := range pieces {
				if pc.W() >= wc && pc.H() >= wc {
					e.mats = append(e.mats, Mat{Kind: MatAssist, Pat: t.pat, Rect: pc})
				}
			}
			e.pieces = pieces[:0]
		}
	}
}

// shapeSlab applies the drop/trim policy against foreign core targets and
// returns the (possibly shortened) slab, or ok=false when a tip slab is
// dropped. near lists, in target order, every target within d_core of f
// and possibly more; a target at d_core or beyond changes nothing.
func (e *Engine) shapeSlab(ds rules.Set, f geom.Rect, horiz bool, span interval.Iv, tip bool, ownPat int, near []int) (geom.Rect, bool) {
	ts := e.ts
	dcore := ds.DCore
	drop := false
	along := &e.along
	along.Reset()
	along.Add(alongIv(f, horiz))
	// The trim below mutates `along` step by step, so the outcome depends
	// on the order foreign cores are considered: near is in target order.
	for _, oi := range near {
		o := ts[oi]
		if o.color != Core || o.pat == ownPat {
			continue
		}
		cur := setToRect(f, along, horiz)
		if cur.Empty() {
			continue
		}
		gap, positive := gapLinf(cur, o.rect)
		if !positive || gap >= dcore {
			continue
		}
		if tip {
			drop = true
			break
		}
		// Try trimming the along-extent to d_core clearance.
		oa := alongIv(o.rect, horiz)
		trial := &e.trial
		trial.CopyFrom(along)
		trial.Subtract(interval.Iv{Lo: oa.Lo - dcore, Hi: oa.Hi + dcore})
		trimmed := false
		for _, iv := range trial.Intervals() {
			if iv.Lo <= span.Lo && iv.Hi >= span.Hi {
				along.Reset()
				along.Add(iv)
				trimmed = true
				break
			}
		}
		if trimmed {
			continue
		}
		// Full clearance is impossible. When the foreign core directly
		// faces the protected span, drop the wrap-around overhang so the
		// unavoidable merge is as short as possible (the merged cut then
		// lands only on the directly facing extent). When the contact is
		// wrap-only, keep the wrap: the merge lands on a tip, which is
		// non-critical.
		if oa.Overlaps(span) {
			cur2 := along.Intervals()
			if len(cur2) == 1 && (cur2[0].Lo < span.Lo || cur2[0].Hi > span.Hi) {
				along.Reset()
				along.Add(span)
			}
		}
	}
	if drop {
		return geom.Rect{}, false
	}
	return setToRect(f, along, horiz), true
}

func alongIv(r geom.Rect, horiz bool) interval.Iv {
	if horiz {
		return interval.Iv{Lo: r.X0, Hi: r.X1}
	}
	return interval.Iv{Lo: r.Y0, Hi: r.Y1}
}

// setToRect rebuilds the slab rect with its along-extent replaced by the
// single interval held in set (empty rect when the set is empty).
func setToRect(f geom.Rect, set *interval.Set, horiz bool) geom.Rect {
	ivs := set.Intervals()
	if len(ivs) == 0 {
		return geom.Rect{}
	}
	iv := ivs[0]
	if horiz {
		return geom.Rect{X0: iv.Lo, Y0: f.Y0, X1: iv.Hi, Y1: f.Y1}
	}
	return geom.Rect{X0: f.X0, Y0: iv.Lo, X1: f.X1, Y1: iv.Hi}
}
