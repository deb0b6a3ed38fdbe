// Package scenario implements the paper's potential-overlay-scenario
// analysis (Section III-A, Theorems 1-3): classifying a pair of dependent
// rectangles by its geometry relationship (Xmin, Ymin, Dir) and producing
// the color rule for that scenario — the per-assignment side-overlay cost
// and the forbidden assignments (hard overlays and type-A cut conflicts).
//
// The profiles encoded here are the paper's Table II, regenerated from this
// repository's layout-decomposition oracle (package decomp); the golden test
// in this package asserts that every profile matches the oracle verdicts on
// the canonical two-rectangle configurations.
//
// Rectangles are given in routing-grid cell coordinates (track units,
// half-open); costs are reported in nm of side-overlay length.
package scenario

import (
	"sadproute/internal/decomp"
	"sadproute/internal/geom"
	"sadproute/internal/rules"
)

// Assign indexes a color assignment of an ordered pattern pair (A, B).
type Assign int

const (
	CC Assign = iota // both core
	CS               // A core, B second
	SC               // A second, B core
	SS               // both second
)

var assignNames = [...]string{"CC", "CS", "SC", "SS"}

func (a Assign) String() string { return assignNames[a] }

// Of returns the Assign index for a concrete color pair.
func Of(ca, cb decomp.Color) Assign {
	i := Assign(0)
	if ca == decomp.Second {
		i += 2
	}
	if cb == decomp.Second {
		i++
	}
	return i
}

// Colors returns the color pair encoded by the assignment.
func (a Assign) Colors() (ca, cb decomp.Color) {
	ca, cb = decomp.Core, decomp.Core
	if a == SC || a == SS {
		ca = decomp.Second
	}
	if a == CS || a == SS {
		cb = decomp.Second
	}
	return ca, cb
}

// Swap exchanges the roles of A and B in the assignment.
func (a Assign) Swap() Assign {
	switch a {
	case CS:
		return SC
	case SC:
		return CS
	default:
		return a
	}
}

// Profile is the color rule of one potential overlay scenario between an
// ordered pattern pair (A, B): Table II distilled to machine form.
type Profile struct {
	// Type is the paper's scenario label (e.g. "1-a", "2-b").
	Type string
	// Cost is the side-overlay length (nm) the scenario induces per
	// assignment.
	Cost [4]int
	// Forbidden marks assignments that produce a hard overlay (side overlay
	// longer than w_line) or a cut conflict — both strictly prohibited.
	Forbidden [4]bool
	// Conflict marks assignments that produce a type-A cut conflict.
	Conflict [4]bool
}

// swap returns the profile with A/B roles exchanged.
func (p Profile) swap() Profile {
	q := p
	for a := CC; a <= SS; a++ {
		q.Cost[a.Swap()] = p.Cost[a]
		q.Forbidden[a.Swap()] = p.Forbidden[a]
		q.Conflict[a.Swap()] = p.Conflict[a]
	}
	return q
}

// Floor returns the minimum cost over allowed assignments, or -1 when every
// assignment is forbidden. A positive floor identifies the paper's type 2-b:
// overlay is unavoidable and the router should discourage the geometry
// itself (the gamma term of eq. (5)).
func (p Profile) Floor() int {
	best := -1
	for a := CC; a <= SS; a++ {
		if p.Forbidden[a] {
			continue
		}
		if best < 0 || p.Cost[a] < best {
			best = p.Cost[a]
		}
	}
	return best
}

// HardSame reports whether the profile forbids all different-color
// assignments (a hard same-color constraint, type 1-b / 2-a).
func (p Profile) HardSame() bool {
	return p.Forbidden[CS] && p.Forbidden[SC] && !p.Forbidden[CC] && !p.Forbidden[SS]
}

// HardDiff reports whether the profile forbids all same-color assignments
// (a hard different-color constraint, type 1-a).
func (p Profile) HardDiff() bool {
	return p.Forbidden[CC] && p.Forbidden[SS] && !p.Forbidden[CS] && !p.Forbidden[SC]
}

// Infeasible reports whether every assignment is forbidden.
func (p Profile) Infeasible() bool {
	return p.Forbidden[CC] && p.Forbidden[CS] && p.Forbidden[SC] && p.Forbidden[SS]
}

// Reach is how far, in cells, a rect's potential overlay scenarios extend:
// Classify accepts no pair more than two tracks apart (Theorem 2; Theorem
// 1's d_indep is about 2.1 tracks), so every rect it pairs with a meets
// a.Expand(Reach), with a cell to spare. The router's scenario detection
// and window checks look this far around a net.
const Reach = 3

// Classify analyzes a pair of rectangles of different nets given in
// grid-cell coordinates and returns the scenario profile for the ordered
// pair (a, b). ok is false when the pair is independent (Theorem 1) or the
// scenario induces no rule (types 2-c, 2-d, 3-d, 3-e).
func Classify(a, b geom.Rect, ds rules.Set) (Profile, bool) {
	xt := trackGap(a.X0, a.X1, b.X0, b.X1)
	yt := trackGap(a.Y0, a.Y1, b.Y0, b.Y1)
	if xt == 0 && yt == 0 {
		return Profile{}, false // overlapping cells: same net or an error
	}
	perp := isPerp(a, b)
	if perp {
		return classifyPerp(a, b, xt, yt, ds)
	}
	return classifyPar(a, b, xt, yt, ds)
}

// trackGap returns the minimum track difference between two cell intervals:
// 0 when they share a track, otherwise the index distance between the
// nearest occupied tracks.
func trackGap(a0, a1, b0, b1 int) int {
	switch {
	case b0 >= a1:
		return b0 - a1 + 1
	case a0 >= b1:
		return a0 - b1 + 1
	default:
		return 0
	}
}

// isPerp reports whether the two rects are orthogonal. Square (1x1) rects
// adopt the partner's orientation, so square pairs and square-wire pairs
// classify as parallel.
func isPerp(a, b geom.Rect) bool {
	oa, ob := a.Orient(), b.Orient()
	if oa == geom.OrientNone || ob == geom.OrientNone {
		return false
	}
	return oa != ob
}

// vertical reports whether the pair's common axis is vertical: for parallel
// pairs the configuration is normalized by swapping x/y so both wires read
// as horizontal.
func bothVertical(a, b geom.Rect) bool {
	oa, ob := a.Orient(), b.Orient()
	if oa == geom.OrientV || ob == geom.OrientV {
		return oa != geom.OrientH && ob != geom.OrientH
	}
	return false
}

// overlapNM converts a cell-interval overlap of o tracks into nm of metal
// overlap: (o-1) pitches plus one line width.
func overlapNM(o int, ds rules.Set) int {
	if o <= 0 {
		return 0
	}
	return (o-1)*ds.Pitch() + ds.WLine
}

func classifyPar(a, b geom.Rect, xt, yt int, ds rules.Set) (Profile, bool) {
	// Normalize to horizontal wires: for a vertical pair swap the axes.
	ox := a.OverlapX(b)
	if bothVertical(a, b) {
		xt, yt = yt, xt
		ox = a.OverlapY(b)
	}
	w := ds.WLine
	switch {
	case yt == 1 && xt == 0:
		// Type 1-a: side-by-side on adjacent tracks. Same colors force a
		// merge+cut along the whole overlap: hard when the overlap exceeds
		// w_line.
		olap := overlapNM(ox, ds)
		p := Profile{Type: "1-a"}
		p.Cost[CC], p.Cost[SS] = 2*olap, 2*olap
		if olap > w {
			p.Forbidden[CC], p.Forbidden[SS] = true, true
		}
		return p, true
	case yt == 2 && xt == 0:
		// Type 1-b: parallel at two tracks. Different colors merge the
		// second pattern's (span-trimmed) assistant core into the core
		// pattern along the directly facing extent: hard when that overlap
		// exceeds w_line.
		olap := overlapNM(ox, ds)
		p := Profile{Type: "1-b"}
		p.Cost[CS] = olap // A is core: overlay lands on A
		p.Cost[SC] = olap
		p.Forbidden[CS] = olap > w
		p.Forbidden[SC] = olap > w
		return p, true
	case yt == 0 && xt == 1:
		// Type 2-a: collinear tip-to-tip at one track. Different colors
		// merge the second pattern's flanks around the core pattern's tip,
		// cutting both of its sides: overlay plus a cut conflict.
		p := Profile{Type: "2-a"}
		p.Cost[CS], p.Cost[SC] = 2*w, 2*w
		p.Conflict[CS], p.Conflict[SC] = true, true
		p.Forbidden[CS], p.Forbidden[SC] = true, true
		return p, true
	case yt == 1 && xt == 1:
		// Type 3-b: corner-diagonal parallel wires. The thick corner merge
		// cuts a unit from each core side; both-second shares assists
		// cleanly.
		p := Profile{Type: "3-b"}
		p.Cost[CC] = 2 * w
		p.Cost[CS], p.Cost[SC] = w, w
		return p, true
	case (yt == 2 && xt == 1) || (yt == 1 && xt == 2):
		if yt == 2 {
			// Type 3-a: diagonal at (1,2). A second pattern's side flank
			// merges into the diagonal core: one unit on the core pattern.
			p := Profile{Type: "3-a"}
			p.Cost[CS], p.Cost[SC] = w, w
			return p, true
		}
		// (2,1): type 3-e, overlay-free.
		return Profile{}, false
	default:
		// (2,0) type 2-c and everything at or beyond d_indep: independent.
		return Profile{}, false
	}
}

func classifyPerp(a, b geom.Rect, xt, yt int, ds rules.Set) (Profile, bool) {
	// Normalize so V is the vertical rect; track whether roles swapped.
	v, h := a, b
	swapped := false
	if a.Orient() == geom.OrientH {
		v, h = b, a
		swapped = true
	}
	// dLong: gap along V's long axis (y); dShort: gap along x.
	dShort := trackGap(v.X0, v.X1, h.X0, h.X1)
	dLong := trackGap(v.Y0, v.Y1, h.Y0, h.Y1)
	_ = xt
	_ = yt
	w := ds.WLine
	var p Profile
	ok := false
	switch {
	case dShort == 0 && dLong == 1:
		// Type 2-b: V's tip one track from H's side. Unavoidable overlay:
		// both-core merges tip-to-side (one unit on H); a second V forces
		// its flanks into H (two units); core V with second H cuts both
		// sides of V's neck — two units plus a cut conflict.
		p = Profile{Type: "2-b"}
		p.Cost[CC], p.Cost[SS] = w, w
		p.Cost[CS], p.Cost[SC] = 2*w, 2*w // CS: V core, H second
		p.Conflict[CS] = true
		p.Forbidden[CS] = true
		ok = true
	case dShort == 1 && dLong == 1:
		// Type 3-b (perpendicular variant): corner-diagonal.
		p = Profile{Type: "3-b"}
		p.Cost[CC] = 2 * w
		p.Cost[CS], p.Cost[SC] = w, w
		ok = true
	default:
		// (0,2)/(2,0) type 2-d, (1,2)/(2,1) type 3-d: overlay-free under
		// optimal assistant-core synthesis.
		return Profile{}, false
	}
	if swapped {
		p = p.swap()
	}
	return p, ok
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
