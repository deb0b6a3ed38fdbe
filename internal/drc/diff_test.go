package drc_test

import (
	"context"
	"testing"
	"time"

	"sadproute/internal/baseline"
	"sadproute/internal/bench"
	"sadproute/internal/decomp"
	"sadproute/internal/drc"
	"sadproute/internal/router"
)

// TestDifferentialBenchSuite is the adversarial cross-check the verifier
// exists for: route scaled-down instances of the paper's benchmark family
// with our router and all three baselines, evaluate the layouts with the
// decomposition oracle, and demand that the independent verifier agrees on
// every layer of every run with zero discrepancies — any disagreement is a
// bug in one of the two implementations. It additionally requires the
// verifier's own rule checks (spacing, width, material legality,
// connectivity), which the oracle does not perform, to come back clean on
// every router's output.
func TestDifferentialBenchSuite(t *testing.T) {
	specs := []bench.Spec{
		{Name: "diff-s1", Nets: 150, Tracks: 56, Layers: 3, Seed: 11, PinCandidates: 1, AvgHPWL: 6, Blockages: 2},
		{Name: "diff-s2", Nets: 250, Tracks: 72, Layers: 3, Seed: 12, PinCandidates: 3, AvgHPWL: 7, Blockages: 3},
		{Name: "diff-s3", Nets: 400, Tracks: 96, Layers: 4, Seed: 13, PinCandidates: 1, AvgHPWL: 8, Blockages: 4},
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			runAllAlgos(t, sp, false)
		})
	}
	// The exhaustive baseline is orders of magnitude slower: one tiny
	// instance keeps it in the suite without dominating the runtime.
	t.Run("diff-tiny-exhaustive", func(t *testing.T) {
		sp := bench.Spec{Name: "diff-tiny", Nets: 40, Tracks: 28, Layers: 2, Seed: 14, PinCandidates: 2, AvgHPWL: 5, Blockages: 1}
		runAllAlgos(t, sp, true)
	})
}

func runAllAlgos(t *testing.T, sp bench.Spec, withExhaustive bool) {
	t.Run("ours", func(t *testing.T) {
		res := router.Route(bench.Generate(sp), ds, router.Defaults())
		crossCheck(t, res.Layouts(), false, false)
	})
	t.Run("gao-pan-trim", func(t *testing.T) {
		out := baseline.TrimGreedy{}.Run(bench.Generate(sp), ds)
		crossCheck(t, out.Layouts, out.Trim, false)
	})
	t.Run("cut-no-merge", func(t *testing.T) {
		out := baseline.CutNoMerge{}.Run(bench.Generate(sp), ds)
		crossCheck(t, out.Layouts, out.Trim, true)
	})
	if !withExhaustive {
		return
	}
	t.Run("du-exhaustive", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		out := baseline.TrimExhaustive{}.RunCtx(ctx, bench.Generate(sp), ds)
		if out == nil {
			t.Fatal("exhaustive baseline hit its budget on a tiny instance")
		}
		crossCheck(t, out.Layouts, out.Trim, false)
	})
}

// crossCheck compares oracle and verifier verdicts layer by layer.
// naive marks decompositions whose merge-happy assist synthesis (the
// cut-no-merge baseline) may legitimately produce overlay-heavy layouts;
// the agreement requirement is identical either way.
func crossCheck(t *testing.T, layouts []decomp.Layout, trim, naive bool) {
	t.Helper()
	_ = naive
	var layers []drc.Layer
	for li, ly := range layouts {
		diffs := compareOracle(ly, trim)
		for _, d := range diffs {
			t.Errorf("layer %d: %s", li, d)
		}
		if trim {
			layers = append(layers, drc.FromTrim(ly))
		} else {
			res := decomp.DecomposeCut(ly)
			if hasErr(res.Violations, "merge bridge") {
				// Would weaken the BadNets comparison above; on-grid router
				// output should never produce one.
				t.Errorf("layer %d: oracle reported a merge-bridge violation: %v", li, res.Violations)
			}
			layers = append(layers, drc.FromDecomp(ly, res.Materials))
		}
	}
	rep := drc.CheckDesign(layers, ds)
	for li, lr := range rep.Layers {
		for _, e := range lr.RuleErrs {
			t.Errorf("layer %d: independent rule check failed on router output: %s", li, e)
		}
	}
	for _, e := range rep.ConnErrs {
		t.Errorf("connectivity: %s", e)
	}
}
