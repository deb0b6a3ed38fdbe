package decomp

import (
	"cmp"
	"slices"
	"sort"

	"sadproute/internal/geom"
)

// gapLinf returns the L-infinity clearance between two rects and whether
// they are disjoint with a positive gap.
func gapLinf(a, b geom.Rect) (int, bool) {
	gx, gy := a.GapX(b), a.GapY(b)
	if gx == 0 && gy == 0 {
		return 0, false // overlapping or touching: already one blob
	}
	if gx > gy {
		return gx, true
	}
	return gy, true
}

// bridgeRect returns the rectangle spanning the gap between two disjoint
// rects: the overlap interval on the aligned axis (or the open gap interval
// for corner-diagonal pairs) crossed with the gap interval.
func bridgeRect(a, b geom.Rect) geom.Rect {
	var x0, x1, y0, y1 int
	if a.OverlapX(b) > 0 {
		x0, x1 = maxi(a.X0, b.X0), mini(a.X1, b.X1)
	} else if a.X1 <= b.X0 {
		x0, x1 = a.X1, b.X0
	} else {
		x0, x1 = b.X1, a.X0
	}
	if a.OverlapY(b) > 0 {
		y0, y1 = maxi(a.Y0, b.Y0), mini(a.Y1, b.Y1)
	} else if a.Y1 <= b.Y0 {
		y0, y1 = a.Y1, b.Y0
	} else {
		y0, y1 = b.Y1, a.Y0
	}
	return geom.Rect{X0: x0, Y0: y0, X1: x1, Y1: y1}
}

// dsu is a plain union-find over material indices; material rects that touch
// or overlap are one mask blob and never need bridging.
type dsu struct{ p []int }

// reset re-initializes the union-find for n elements, reusing its backing
// array (pooled engines rebuild connectivity every merge iteration).
func (d *dsu) reset(n int) {
	if cap(d.p) < n {
		d.p = make([]int, n)
	} else {
		d.p = d.p[:n]
	}
	for i := range d.p {
		d.p[i] = i
	}
}

func (d *dsu) find(x int) int {
	for d.p[x] != x {
		d.p[x] = d.p[d.p[x]]
		x = d.p[x]
	}
	return x
}

func (d *dsu) union(a, b int) { d.p[d.find(a)] = d.find(b) }

// buildBridges realizes the merge technique: any two pieces of core-mask
// material in different blobs closer than d_core cannot coexist on the core
// mask, so they are merged; the merge material is removed by the cut mask,
// inducing overlays where it touches target boundaries.
//
//   - Straight merges (the pair overlaps in one axis) get a thin bridge
//     spanning the gap.
//   - Corner merges (diagonal pairs) get a thick bridge — the corner gap
//     square expanded by w_core so the mask connection meets minimum width;
//     it legitimately overlaps its two parents. When the thick bridge would
//     collide with an unrelated target (or encroach a second pattern), and a
//     parent is an assistant core, the assist is trimmed back to d_core
//     clearance instead (real decomposers sacrifice optional assist material
//     before breaking a target).
//
// Bridging iterates until no blob pair remains within d_core. Each iteration
// resolves ALL close cross-blob pairs against a geometry snapshot taken at
// its start: physically, every pair of mask features under d_core coalesces
// (the merge is not a choice of spanning subset), and algorithmically no
// decision ever observes a mid-iteration union or trim. The outcome is then
// a function of the layout geometry alone — material enumeration order
// (which tracks absolute coordinates) cannot influence the verdict, so
// rigid transforms of the layout preserve it.
//
// The first iteration queries the index once per material (connect); a
// later one queries only the material the last one added or trimmed. The
// connectivity of the final geometry also counts Result.Blobs: at the
// fixed point it is that iteration's, after the sixth iteration one more
// connect builds it.
//
// The merge index e.bix is built once, over the first iteration's
// material: a trim only shrinks an assist to a sub-rect, which the buckets
// of its first geometry still cover. The bridges added since are indexed
// in e.nix.
func (e *Engine) buildBridges(ly Layout, res *Result) {
	ds := ly.Rules
	mats, ts, tix := e.mats, e.ts, &e.tix
	comp := &e.comp
	e.links, e.dirty = e.links[:0], e.dirty[:0]
	e.bix.reset(indexCell(ly))
	for i := range mats {
		e.bix.add(i, mats[i].Rect)
		e.dirty = append(e.dirty, true)
	}
	n0 := len(mats)
	for iter := 0; ; iter++ {
		// Connectivity is rebuilt from the actual geometry every iteration:
		// a trim can pull an assist off material it used to touch, and a
		// stale union would then hide the fresh sub-d_core gap forever.
		// Snapshot the geometry and collect every cross-blob pair closer
		// than d_core. The pair set is determined by the snapshot, not by
		// any processing order.
		snap := e.snap[:0]
		for i := range mats {
			snap = append(snap, mats[i].Rect)
		}
		e.snap = snap
		e.connect(ly, snap, n0)
		if iter == 6 {
			break
		}
		pairs := e.pairs[:0]
		for _, l := range e.links {
			i, j := int(l.i), int(l.j)
			if !l.touch && comp.find(i) != comp.find(j) {
				pairs = append(pairs, matPair{i, j})
			}
		}
		e.pairs = pairs
		slices.SortFunc(pairs, func(a, b matPair) int {
			return cmp.Or(cmp.Compare(a.i, b.i), cmp.Compare(a.j, b.j))
		})

		// Widen the degenerate diagonal case where the two rects touch in
		// one axis projection (zero-width cross): without this the bridge
		// is empty and the pair would be marked merged while staying
		// physically apart — two printed features under d_core.
		cornerBridge := func(a, b geom.Rect) geom.Rect {
			br := bridgeRect(a, b)
			if br.X1 <= br.X0 {
				br.X0, br.X1 = br.X0-ds.WCore/2, br.X0+ds.WCore/2
			}
			if br.Y1 <= br.Y0 {
				br.Y0, br.Y1 = br.Y0-ds.WCore/2, br.Y0+ds.WCore/2
			}
			return br
		}

		added := e.added[:0]
		if e.trimRect == nil {
			e.trimRect = map[int]geom.Rect{} // assist index -> intersected trim result
			e.trimPend = map[int][]matPair{} // assist index -> pairs relying on that trim
		} else {
			clear(e.trimRect)
			clear(e.trimPend)
		}
		trimRect, trimPend := e.trimRect, e.trimPend
		for _, p := range pairs {
			a, b := snap[p.i], snap[p.j]
			var br geom.Rect
			if a.OverlapX(b) <= 0 && a.OverlapY(b) <= 0 {
				br = cornerBridge(a, b)
				thick := br.Expand(ds.WCore)
				switch nr, k, ok := trimRequest(ds.DCore, ds.WCore, mats, snap, p.i, p.j); {
				case !bridgeCollision(ly, thick, a, b, ts, tix):
					br = thick
				case ok:
					// Proximity resolvable by trimming the assist parent.
					// Trims against several partners intersect — the
					// intersection clears each of them and is commutative,
					// so the request order is immaterial.
					if cur, have := trimRect[k]; have {
						nr = cur.Intersect(nr)
					}
					trimRect[k] = nr
					trimPend[k] = append(trimPend[k], p)
					continue
				default:
					// Fall back to the point-contact corner bridge: it
					// lies entirely in the spacing cross, and core-mask
					// MRC violations over spacer are waivable (Ma et
					// al., cited in Section II-B). No overlay results.
				}
			} else {
				br = bridgeRect(a, b)
				reportBridge(ly, br, a, b, ts, tix, res)
			}
			if !br.Empty() {
				added = append(added, Mat{Kind: MatBridge, Pat: -1, Rect: br})
			}
		}

		// Apply trims whose intersected result still meets the core
		// minimum; pairs whose trim collapsed revert to point-contact
		// bridges (real decomposers sacrifice optional assist material
		// before breaking a target).
		tks := e.tks[:0]
		for k := range trimRect {
			tks = append(tks, k)
		}
		sort.Ints(tks)
		e.tks = tks[:0]
		trimmed := false
		for _, k := range tks {
			nr := trimRect[k]
			if !nr.Empty() && nr.W() >= ds.WCore && nr.H() >= ds.WCore {
				mats[k].Rect = nr
				e.dirty[k] = true
				trimmed = true
				continue
			}
			for _, p := range trimPend[k] {
				added = append(added, Mat{Kind: MatBridge, Pat: -1, Rect: cornerBridge(snap[p.i], snap[p.j])})
			}
		}

		// A trim-only iteration is not a fixed point: the trim may have
		// opened a sub-d_core gap to formerly-touching material, which the
		// next iteration's rebuilt connectivity will catch and bridge.
		e.added = added[:0]
		if len(added) == 0 && !trimmed {
			break
		}
		mats = append(mats, added...)
		for range added {
			e.dirty = append(e.dirty, true)
		}
	}
	e.mats = mats
	// Count the surviving mask blobs (distinct touching-components over
	// non-empty material) for the observability snapshot. Unions join only
	// non-empty material, so each such blob has one non-empty root.
	res.Blobs = 0
	for i := range mats {
		if !mats[i].Rect.Empty() && comp.find(i) == i {
			res.Blobs++
		}
	}
}

// connect brings the merge stage's links up to rects and rebuilds e.comp
// from them. A link is a pair (i < j) of non-empty rects closer than
// d_core: touching (one blob) or with a positive L-infinity gap. Links
// between rects that kept their geometry carry over; each rect marked in
// e.dirty is queried once, which finds both kinds of its links (touching
// rects meet its Expand(1), close ones its Expand(d_core)), and a link
// between two dirty rects is kept from the lower one's query. Rects below
// n0 are found through e.bix, the rest through e.nix, rebuilt here.
func (e *Engine) connect(ly Layout, rects []geom.Rect, n0 int) {
	dcore := ly.Rules.DCore
	dirty := e.dirty
	added := len(rects) > n0
	if added {
		e.nix.reset(indexCell(ly))
		for j, r := range rects[n0:] {
			e.nix.add(j, r)
		}
	}
	links := e.links[:0]
	for _, l := range e.links {
		if !dirty[l.i] && !dirty[l.j] {
			links = append(links, l)
		}
	}
	for i, a := range rects {
		if !dirty[i] || a.Empty() {
			continue
		}
		link := func(j int) {
			if j == i || (dirty[j] && j < i) || rects[j].Empty() {
				return
			}
			if gap, positive := gapLinf(a, rects[j]); !positive || gap < dcore {
				links = append(links, matLink{i: int32(min(i, j)), j: int32(max(i, j)), touch: !positive})
			}
		}
		q := a.Expand(max(dcore, 1))
		e.bix.query(q, link)
		if added {
			e.nix.query(q, func(j int) { link(n0 + j) })
		}
	}
	e.links = links
	clear(dirty)
	comp := &e.comp
	comp.reset(len(rects))
	for _, l := range links {
		if l.touch {
			comp.union(int(l.i), int(l.j))
		}
	}
}

// bridgeCollision reports whether a (thick) bridge hits target geometry
// other than its own parents.
func bridgeCollision(ly Layout, br, pa, pb geom.Rect, ts []tgt, tix *rectIndex) bool {
	ws := ly.Rules.WSpacer
	hit := false
	tix.query(br.Expand(ws), func(oi int) {
		if hit {
			return
		}
		o := ts[oi]
		if o.rect == pa || o.rect == pb {
			return
		}
		if br.Intersects(o.rect) {
			hit = true
			return
		}
		if o.color == Second && br.Intersects(o.rect.Expand(ws)) {
			hit = true
		}
	})
	return hit
}

// reportBridge records violations for a bridge that collides with targets.
func reportBridge(ly Layout, br, pa, pb geom.Rect, ts []tgt, tix *rectIndex, res *Result) {
	ws := ly.Rules.WSpacer
	tix.query(br.Expand(ws), func(oi int) {
		o := ts[oi]
		if o.rect == pa || o.rect == pb {
			return
		}
		if br.Intersects(o.rect) {
			res.addViolationNet(o.net, "merge bridge %v overlaps target of net %d", br, o.net)
			return
		}
		if o.color == Second && br.Intersects(o.rect.Expand(ws)) {
			res.addViolationNet(o.net, "merge bridge %v encroaches on second pattern of net %d", br, o.net)
		}
	})
}

// trimRequest tries to pull one assistant-core parent of a corner pair back
// to d_core clearance from the other, computing against the snapshot
// geometry. When both parents are trimmable assists it keeps the one that
// retains the most material — an orientation-free criterion, so mirrored
// layouts make the mirrored choice.
func trimRequest(dcore, wc int, mats []Mat, snap []geom.Rect, i, j int) (geom.Rect, int, bool) {
	best, bk, ok := geom.Rect{}, 0, false
	for _, k := range [2]int{i, j} {
		o := i + j - k
		if mats[k].Kind != MatAssist {
			continue
		}
		if nr, got := trimAway(snap[k], snap[o], dcore, wc); got {
			if !ok || nr.Area() > best.Area() {
				best, bk, ok = nr, k, true
			}
		}
	}
	return best, bk, ok
}

// trimAway shrinks rect a away from rect b until their gap along one axis
// reaches at least d, preferring the axis where a keeps the most extent.
func trimAway(a, b geom.Rect, d, minw int) (geom.Rect, bool) {
	// At most one candidate per axis: shrunk in X, then in Y.
	var cands [2]geom.Rect
	n := 0
	if a.X1 <= b.X0 { // a is west of b
		cands[n] = a
		cands[n].X1 = b.X0 - d
		n++
	} else if b.X1 <= a.X0 {
		cands[n] = a
		cands[n].X0 = b.X1 + d
		n++
	}
	if a.Y1 <= b.Y0 {
		cands[n] = a
		cands[n].Y1 = b.Y0 - d
		n++
	} else if b.Y1 <= a.Y0 {
		cands[n] = a
		cands[n].Y0 = b.Y1 + d
		n++
	}
	best := geom.Rect{}
	ok := false
	for _, c := range cands[:n] {
		if c.W() < minw || c.H() < minw {
			continue
		}
		if !ok || c.Area() > best.Area() {
			best, ok = c, true
		}
	}
	return best, ok
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func mini(a, b int) int {
	if a < b {
		return a
	}
	return b
}
