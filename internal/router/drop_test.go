package router_test

import (
	"fmt"
	"testing"

	"sadproute/internal/bench"
	"sadproute/internal/drc"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// TestTerminalDropReachesFixedPoint routes the two served-profile jobs
// (60 nets × 32 tracks, sadpload's generator) whose repair budget runs out
// and whose first terminal drop makes a new offender: a neighbour's assist
// or merge changes when a net is dropped. The drop must repeat until no
// routed net offends, so the independent verifier finds no cut conflict,
// hard overlay or violation.
func TestTerminalDropReachesFixedPoint(t *testing.T) {
	ds := rules.Node10nm()
	for _, seed := range []int64{35, 48} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			nl := bench.Generate(bench.Spec{Name: "served", Nets: 60, Tracks: 32, Layers: 3,
				Seed: seed, PinCandidates: 1, AvgHPWL: 8, Blockages: 2})
			res := router.Route(nl, ds, router.Defaults())
			layouts := res.Layouts()
			results, _ := res.DecomposeLayersR(nil)
			var layers []drc.Layer
			for l, ly := range layouts {
				layers = append(layers, drc.FromDecomp(ly, results[l].Materials))
			}
			rep := drc.CheckDesign(layers, ds)
			var conf, hard, viol int
			for _, lr := range rep.Layers {
				conf += lr.Conflicts
				hard += lr.HardOverlays
				viol += len(lr.Violations)
			}
			if conf != 0 || hard != 0 || viol != 0 {
				t.Fatalf("drc: %d cut conflicts, %d hard overlays, %d violations; want none (%d routed, %d failed)",
					conf, hard, viol, res.Routed, res.Failed)
			}
			if !rep.Clean() {
				t.Fatalf("drc report not clean: %+v %v", rep.Layers, rep.ConnErrs)
			}
		})
	}
}
