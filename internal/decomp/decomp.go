// Package decomp implements the SADP layout-decomposition oracle (the
// process model of paper Section II and its merge technique): given a
// colored layout (every pattern assigned to the core mask or to the second
// mask) it synthesizes assistant core patterns, merges core material closer
// than d_core (the paper's merge technique, realized as bridge rectangles
// covered by the cut mask), derives spacer protection, and measures side
// overlays, tip overlays, hard overlays and cut conflicts. It supports both
// the SADP cut process (the paper's contribution) and the SADP trim process
// (used by the baseline routers).
//
// The oracle is the ground truth of this reproduction: the router's
// incremental bookkeeping (package scenario) is validated against it, and
// the paper's Table II / Figs. 24-34 enumerations are regenerated from it.
//
// Geometry model: all coordinates are integer nanometers; rectangles are
// half-open. Dilation (spacer growth, merge reach) uses the L-infinity
// metric — square spacer corners, exactly as drawn in the paper's figures.
// On the routing grid (pitch = w_line + w_spacer, all pattern gaps multiples
// of w_spacer) the L-infinity and Euclidean merge criteria coincide for
// d_core = 30 nm, so no behavior is lost relative to a round-corner model.
package decomp

import (
	"fmt"

	"sadproute/internal/geom"
	"sadproute/internal/rules"
)

// Color is a mask assignment of a pattern.
type Color uint8

const (
	// Unassigned patterns make a layout undecomposable.
	Unassigned Color = iota
	// Core patterns are printed directly by the core mask.
	Core
	// Second patterns are defined by spacer gaps plus the cut/trim mask.
	Second
)

func (c Color) String() string {
	switch c {
	case Core:
		return "C"
	case Second:
		return "S"
	default:
		return "?"
	}
}

// Flip returns the opposite mask assignment (Unassigned flips to itself).
func (c Color) Flip() Color {
	switch c {
	case Core:
		return Second
	case Second:
		return Core
	default:
		return Unassigned
	}
}

// Pattern is one net's target geometry on one routing layer, fragmented
// into rectangles (Theorem 3).
type Pattern struct {
	Net   int
	Color Color
	Rects []geom.Rect // nm coordinates
}

// Layout is the input of the oracle: one routing layer's colored patterns.
type Layout struct {
	Rules rules.Set
	Die   geom.Rect // nm; assist material is clipped to the die
	Pats  []Pattern
	// NaiveAssists disables the optimizing assistant-core synthesis
	// (tip-slab dropping and side-slab trimming): full rings are always
	// placed and merge freely with main cores. This models the
	// decomposer of the paper's ref. [16], whose core/assist mergers
	// cause the severe overlays of Fig. 22.
	NaiveAssists bool
}

// MatKind identifies the origin of a piece of core-mask material.
type MatKind uint8

const (
	// MatCoreTarget is a target pattern assigned to the core mask.
	MatCoreTarget MatKind = iota
	// MatAssist is an assistant core pattern flanking a second pattern.
	MatAssist
	// MatBridge is merge material spanning a sub-d_core gap; it is always
	// removed by the cut mask and induces overlays where it touches targets.
	MatBridge
)

func (k MatKind) String() string {
	switch k {
	case MatCoreTarget:
		return "core"
	case MatAssist:
		return "assist"
	default:
		return "bridge"
	}
}

// Mat is one rectangle of core-mask material.
type Mat struct {
	Kind MatKind
	Pat  int // owning pattern index; -1 for bridges
	Rect geom.Rect
}

// Side identifies one of the four sides of a rectangle.
type Side uint8

const (
	SideLeft Side = iota
	SideRight
	SideBottom
	SideTop
)

func (s Side) String() string {
	return [...]string{"left", "right", "bottom", "top"}[s]
}

// Overlay is one maximal boundary section of a target pattern that is
// defined directly by the cut/trim mask instead of being protected by a
// spacer.
type Overlay struct {
	Pat  int       // pattern index
	Rect geom.Rect // the target rect whose boundary carries the overlay
	Side Side
	Lo   int  // interval along the side (x for top/bottom, y for left/right)
	Hi   int  // nm, half-open
	Tip  bool // true for tip overlays (non-critical, excluded from length)
	Hard bool // true when a side overlay exceeds w_line
}

// Len returns the overlay length in nm.
func (o Overlay) Len() int { return o.Hi - o.Lo }

// CutConflict is a cut-mask (or trim-mask) minimum-distance violation over a
// target pattern: two mask openings flank the pattern closer than d_cut.
type CutConflict struct {
	Pat  int
	Rect geom.Rect
	Lo   int // shared projection interval, nm
	Hi   int
	Tips bool // conflict between the two tip cuts of a short wire
}

// Result summarizes one layer's decomposition.
type Result struct {
	// SideOverlayNM is the total length of non-tip overlays in nm.
	// SideOverlayUnits is the same in w_line units (the paper's metric).
	SideOverlayNM    int
	SideOverlayUnits float64 //lint:allow float reporting-only metric, never fed back into geometry
	TipOverlayNM     int
	HardOverlays     int
	Overlays         []Overlay
	Conflicts        []CutConflict
	// Violations are decomposition failures that the paper's router rules
	// out by construction: spacer material encroaching on a second target,
	// targets of different nets touching, or unassigned colors.
	Violations []string
	// BadNets lists the nets implicated in Violations (deduplicated).
	BadNets []int
	// Materials is the full synthesized core-mask material list (targets,
	// assists, bridges) for rendering and inspection.
	Materials []Mat
	// Blobs is the number of connected core-mask material components after
	// merging (observability: how fragmented the core mask ended up).
	Blobs int
}

func (r *Result) addViolation(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// addViolationNet records a violation implicating the given net.
func (r *Result) addViolationNet(net int, format string, args ...any) {
	r.addViolation(format, args...)
	for _, n := range r.BadNets {
		if n == net {
			return
		}
	}
	r.BadNets = append(r.BadNets, net)
}

// ConflictCount returns the number of cut (or trim) conflicts.
func (r *Result) ConflictCount() int { return len(r.Conflicts) }
