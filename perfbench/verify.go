package main

import (
	"fmt"

	"sadproute/internal/decomp"
	"sadproute/internal/drc"
	"sadproute/internal/grid"
	"sadproute/internal/netlist"
	"sadproute/internal/rules"
)

// verdict is the outcome of checking one routed output from outside the
// router.
type verdict struct {
	// failed marks an output that misses a guarantee of the paper's
	// Problem 1 (zero cut conflicts, zero hard overlays, full
	// decomposability), errors, or fails any check below.
	failed bool
	// silent marks a defect the program did not report itself: the
	// verifier disagrees with the program's own numbers, or a path the
	// program counts as routed is not a pin-to-pin path. A silent defect
	// makes the whole run incorrect.
	silent    bool
	routed    int // nets with a verified pin-to-pin path
	overlayNM int // side overlay of the verified layout
	problems  []string
}

func (v *verdict) fail(silent bool, format string, args ...any) {
	v.failed = true
	v.silent = v.silent || silent
	if len(v.problems) < 5 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// checkPaths verifies every committed path against the netlist it was
// routed from: each must be a unit-step cell sequence through a candidate
// cell of both pins of its net. claimed is the routed count the program
// reports; it must equal the number of verified paths.
func checkPaths(v *verdict, nl *netlist.Netlist, paths map[int][]grid.Cell, claimed int) {
	for id, p := range paths {
		if id < 0 || id >= len(nl.Nets) {
			v.fail(true, "path for unknown net %d", id)
			continue
		}
		if why := pathProblem(nl.Nets[id], p); why != "" {
			v.fail(true, "net %d: %s", id, why)
			continue
		}
		v.routed++
	}
	if v.routed != claimed {
		v.fail(true, "program reports %d routed nets, %d paths verify", claimed, v.routed)
	}
}

func pathProblem(n netlist.Net, p []grid.Cell) string {
	if len(p) == 0 {
		return "empty path"
	}
	for i := 1; i < len(p); i++ {
		if abs(p[i].X-p[i-1].X)+abs(p[i].Y-p[i-1].Y)+abs(p[i].L-p[i-1].L) != 1 {
			return fmt.Sprintf("step %v -> %v is not a unit step", p[i-1], p[i])
		}
	}
	if !touches(p, n.A) || !touches(p, n.B) {
		return "path does not reach a candidate of both pins"
	}
	return ""
}

func touches(p []grid.Cell, pin netlist.Pin) bool {
	for _, c := range p {
		for _, cand := range pin.Candidates {
			if c == cand {
				return true
			}
		}
	}
	return false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// verifyLayout runs the independent DRC verifier (mask rules, overlay
// measurement and per-net connectivity) over a routed design and compares
// its measurements with the totals the program reported.
func verifyLayout(v *verdict, layers []drc.Layer, tot decomp.Totals, ds rules.Set) {
	rep := drc.CheckDesign(layers, ds)
	var side, hard, conf, viol, ruleErrs int
	for _, lr := range rep.Layers {
		side += lr.SideOverlayNM
		hard += lr.HardOverlays
		conf += lr.Conflicts
		viol += len(lr.Violations)
		ruleErrs += len(lr.RuleErrs)
	}
	v.overlayNM = side
	if side != tot.SideOverlayNM || hard != tot.HardOverlays || conf != tot.Conflicts || viol != tot.Violations {
		v.fail(true, "verifier measures side=%dnm hard=%d conflicts=%d violations=%d, program reports %d/%d/%d/%d",
			side, hard, conf, viol, tot.SideOverlayNM, tot.HardOverlays, tot.Conflicts, tot.Violations)
	}
	if ruleErrs > 0 || len(rep.ConnErrs) > 0 {
		v.fail(true, "verifier finds %d rule errors and %d disconnected nets", ruleErrs, len(rep.ConnErrs))
	}
	if tot.HardOverlays > 0 || tot.Conflicts > 0 || tot.Violations > 0 {
		v.fail(false, "guarantee missed: %d hard overlays, %d cut conflicts, %d violations",
			tot.HardOverlays, tot.Conflicts, tot.Violations)
	}
}
