package baseline_test

import (
	"context"
	"testing"
	"time"

	"sadproute/internal/baseline"
	"sadproute/internal/bench"
	"sadproute/internal/decomp"
	"sadproute/internal/rules"
)

func instance(cands int) *bench.Spec {
	return &bench.Spec{
		Name: "b", Nets: 80, Tracks: 40, Layers: 3,
		Seed: 3, PinCandidates: cands, AvgHPWL: 5, Blockages: 1,
	}
}

func TestTrimGreedyRuns(t *testing.T) {
	nl := bench.Generate(*instance(1))
	out := baseline.TrimGreedy{}.Run(nl, rules.Node10nm())
	if out.Routed == 0 {
		t.Fatal("routed nothing")
	}
	if !out.Trim {
		t.Fatal("trim baseline must evaluate with the trim oracle")
	}
	_, tot := decomp.DecomposeTrimLayers(out.Layouts)
	// The trim process without assist cores must leave substantial overlay.
	if tot.SideOverlayUnits == 0 {
		t.Fatal("trim baseline with zero overlay is implausible")
	}
}

func TestCutNoMergeRuns(t *testing.T) {
	nl := bench.Generate(*instance(1))
	out := baseline.CutNoMerge{}.Run(nl, rules.Node10nm())
	if out.Routed == 0 {
		t.Fatal("routed nothing")
	}
	if out.Trim || !out.NaiveAssists {
		t.Fatal("no-merge baseline must use the naive-assist cut oracle")
	}
	for _, ly := range out.Layouts {
		if !ly.NaiveAssists {
			t.Fatal("layouts must carry the naive-assist flag")
		}
	}
}

func TestExhaustiveRespectsBudget(t *testing.T) {
	nl := bench.Generate(*instance(3))
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if out := (baseline.TrimExhaustive{}).RunCtx(ctx, nl, rules.Node10nm()); out != nil {
		t.Fatal("nanosecond budget must abort (the paper's NA entries)")
	}
	out := baseline.TrimExhaustive{}.RunCtx(context.Background(), nl, rules.Node10nm())
	if out == nil || out.Routed == 0 {
		t.Fatal("unbudgeted run must complete")
	}
}

// TestBaselinesNeverBeatOursOnOverlay is the Table III/IV shape invariant on
// a shared instance.
func TestBaselinesNeverBeatOursOnOverlay(t *testing.T) {
	cfg := bench.RunConfig{Rules: rules.Node10nm(), Budget: time.Minute}
	mustRun := func(algo bench.Algo) bench.Metrics {
		m, err := bench.Run(bench.Generate(*instance(1)), algo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ours := mustRun(bench.AlgoOurs)
	tg := mustRun(bench.AlgoTrimGreedy)
	cm := mustRun(bench.AlgoCutNoMerge)
	if ours.Conflicts+ours.HardOverlays != 0 {
		t.Fatalf("ours must be conflict-free, got %d/%d", ours.Conflicts, ours.HardOverlays)
	}
	if ours.OverlayUnits >= tg.OverlayUnits || ours.OverlayUnits >= cm.OverlayUnits {
		t.Fatalf("overlay ordering violated: ours=%.1f trim=%.1f nomerge=%.1f",
			ours.OverlayUnits, tg.OverlayUnits, cm.OverlayUnits)
	}
}
