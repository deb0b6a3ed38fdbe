package serve

import (
	"fmt"
	"strings"

	"sadproute/internal/decomp"
	"sadproute/internal/netlist"
	"sadproute/internal/obs"
	"sadproute/internal/router"
)

// Summarize folds a routing result and its oracle totals into the
// deterministic Summary (no wall-clock fields).
func Summarize(nl *netlist.Netlist, res *router.Result, tot decomp.Totals) Summary {
	return Summary{
		Design:           nl.Name,
		Nets:             len(nl.Nets),
		GridW:            nl.W,
		GridH:            nl.H,
		Layers:           nl.Layers,
		Routed:           res.Routed,
		Failed:           res.Failed,
		RoutabilityPct:   res.Routability(),
		WirelengthCells:  res.WirelengthCells,
		Vias:             res.Vias,
		SideOverlayUnits: tot.SideOverlayUnits,
		SideOverlayNM:    tot.SideOverlayNM,
		TipOverlayNM:     tot.TipOverlayNM,
		HardOverlays:     tot.HardOverlays,
		Conflicts:        tot.Conflicts,
		Violations:       tot.Violations,
	}
}

// RenderResultText is the canonical deterministic dump of a routed
// result: summary, every net's committed path, every per-layer color
// assignment, and the obs counter/gauge/histogram block — and nothing
// wall-clock. cmd/sadproute -result writes the same bytes for the same
// input, which is what lets the soak test and the CI sadpd smoke step
// diff a served job against the one-shot CLI for byte-identity.
//
// Iteration is canonical throughout: nets ascend by ID (path membership
// tested against the Paths map, never ranged; colors read from the dense
// per-layer slices), layers ascend, and the counter block is
// obs.Snapshot.CountersString (declaration order).
func RenderResultText(nl *netlist.Netlist, res *router.Result, tot decomp.Totals, snap *obs.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %s nets %d grid %dx%dx%d\n", nl.Name, len(nl.Nets), nl.W, nl.H, nl.Layers)
	fmt.Fprintf(&b, "routed %d failed %d routability %.2f%%\n", res.Routed, res.Failed, res.Routability())
	fmt.Fprintf(&b, "wirelength_cells %d vias %d\n", res.WirelengthCells, res.Vias)
	fmt.Fprintf(&b, "side_overlay units %.1f nm %d tip_nm %d\n",
		tot.SideOverlayUnits, tot.SideOverlayNM, tot.TipOverlayNM)
	fmt.Fprintf(&b, "hard_overlays %d cut_conflicts %d violations %d\n",
		tot.HardOverlays, tot.Conflicts, tot.Violations)
	b.WriteString("begin paths\n")
	for id := 0; id < len(nl.Nets); id++ {
		path, ok := res.Paths[id]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "path %d", id)
		for _, c := range path {
			fmt.Fprintf(&b, " (%d,%d,%d)", c.X, c.Y, c.L)
		}
		b.WriteByte('\n')
	}
	b.WriteString("end paths\n")
	b.WriteString("begin colors\n")
	for l, colors := range res.Colors {
		for id, c := range colors {
			if c != decomp.Unassigned {
				fmt.Fprintf(&b, "color %d %d %d\n", l, id, int(c))
			}
		}
	}
	b.WriteString("end colors\n")
	b.WriteString("begin counters\n")
	b.WriteString(snap.CountersString())
	b.WriteString("end counters\n")
	return b.String()
}
