package router_test

import (
	"context"
	"reflect"
	"testing"

	"sadproute/internal/bench"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// TestRouteCtxNilAndBackgroundIdentical pins the RouteCtx contract: a run
// under a never-cancelled context commits exactly the paths and colors of
// a context-free Route.
func TestRouteCtxNilAndBackgroundIdentical(t *testing.T) {
	nl := bench.Generate(bench.Spec{
		Name: "ctx-eq", Nets: 20, Tracks: 28, Layers: 3,
		Seed: 41, PinCandidates: 1, AvgHPWL: 7, Blockages: 2,
	})
	ds := rules.Node10nm()

	base := router.Route(nl, ds, router.Defaults())
	got, err := router.RouteCtx(context.Background(), nl, ds, router.Defaults())
	if err != nil {
		t.Fatalf("RouteCtx with a live context returned %v", err)
	}
	if !reflect.DeepEqual(base.Paths, got.Paths) {
		t.Error("RouteCtx paths diverge from Route")
	}
	if !reflect.DeepEqual(base.Colors, got.Colors) {
		t.Error("RouteCtx colors diverge from Route")
	}
	if base.Routed != got.Routed || base.Failed != got.Failed ||
		base.WirelengthCells != got.WirelengthCells || base.Vias != got.Vias {
		t.Errorf("RouteCtx summary diverges: %d/%d/%d/%d vs %d/%d/%d/%d",
			got.Routed, got.Failed, got.WirelengthCells, got.Vias,
			base.Routed, base.Failed, base.WirelengthCells, base.Vias)
	}
}

// TestRouteCtxPreCancelled: a context cancelled before the run starts
// aborts at the first net boundary — no nets are committed and the
// context error is surfaced.
func TestRouteCtxPreCancelled(t *testing.T) {
	nl := bench.Generate(bench.Spec{
		Name: "ctx-pre", Nets: 20, Tracks: 28, Layers: 3,
		Seed: 43, PinCandidates: 1, AvgHPWL: 7, Blockages: 2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := router.RouteCtx(ctx, nl, rules.Node10nm(), router.Defaults())
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("partial result is nil")
	}
	if len(res.Paths) != 0 {
		t.Errorf("pre-cancelled run committed %d paths", len(res.Paths))
	}
}

// countdownCtx is a deterministic mid-run cancellation probe: Err stays
// nil for the first `allow` checks and reports context.Canceled from then
// on. With serial routing the sequence of check points is fixed, so the
// abort lands at the same boundary every run.
type countdownCtx struct {
	context.Context
	allow int
	calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.allow {
		return context.Canceled
	}
	return nil
}

// TestRouteCtxMidRunCancel aborts after a fixed number of check points
// and verifies the route stopped early: some nets committed, strictly
// fewer than the full run, with the context error surfaced.
func TestRouteCtxMidRunCancel(t *testing.T) {
	nl := bench.Generate(bench.Spec{
		Name: "ctx-mid", Nets: 30, Tracks: 32, Layers: 3,
		Seed: 47, PinCandidates: 1, AvgHPWL: 8, Blockages: 2,
	})
	ds := rules.Node10nm()
	full := router.Route(nl, ds, router.Defaults())
	if full.Routed < 10 {
		t.Fatalf("fixture too small: full run routed only %d nets", full.Routed)
	}

	ctx := &countdownCtx{Context: context.Background(), allow: 8}
	partial, err := router.RouteCtx(ctx, nl, ds, router.Defaults())
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(partial.Paths) == 0 {
		t.Error("mid-run cancel committed no paths; expected a partial prefix")
	}
	if len(partial.Paths) >= len(full.Paths) {
		t.Errorf("cancelled run committed %d paths, full run %d — cancellation did not stop the route",
			len(partial.Paths), len(full.Paths))
	}
}
