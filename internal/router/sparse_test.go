package router_test

import (
	"reflect"
	"testing"

	"sadproute/internal/bench"
	"sadproute/internal/decomp"
	"sadproute/internal/drc"
	"sadproute/internal/obs"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// sparseSpec is a low-congestion long-net instance at a die size where the
// corridor graph pays off; routeSparse drops the HPWL gate so every net
// engages it.
var sparseSpec = bench.Spec{
	Name: "sparse-t", Nets: 40, Tracks: 220, Layers: 3, Seed: 44,
	PinCandidates: 1, AvgHPWL: 80, Blockages: 6,
}

func routeSparse(t *testing.T, on bool) (*router.Result, obs.Snapshot) {
	t.Helper()
	nl := bench.Generate(sparseSpec)
	opt := router.Defaults()
	opt.SparseSearch = on
	opt.SparseMinHPWL = 4
	opt.Obs = obs.New()
	res := router.Route(nl, rules.Node10nm(), opt)
	snap := opt.Obs.Snapshot()
	return res, snap
}

// TestSparseEngagesAndCutsExpansions is the tentpole's router-level bar:
// on a long-net low-congestion instance the corridor graph must answer
// most first searches (few fallbacks) and slash dense A* expansions, while
// routing everything the dense engine routes.
func TestSparseEngagesAndCutsExpansions(t *testing.T) {
	if testing.Short() {
		t.Skip("routes a 220-track instance twice")
	}
	dres, dsnap := routeSparse(t, false)
	sres, ssnap := routeSparse(t, true)

	searches := ssnap.Counter(obs.CtrSparseSearches)
	fallbacks := ssnap.Counter(obs.CtrSparseFallbacks)
	if searches == 0 {
		t.Fatal("sparse search never engaged")
	}
	if adopted := searches - fallbacks; adopted < searches/2 {
		t.Errorf("adoption rate collapsed: %d adopted of %d", adopted, searches)
	}
	dexp, sexp := dsnap.Counter(obs.CtrAstarExpanded), ssnap.Counter(obs.CtrAstarExpanded)
	if sexp*5 > dexp {
		t.Errorf("sparse run should cut dense expansions at least 5x: dense=%d sparse=%d", dexp, sexp)
	}
	if sres.Routability() < dres.Routability() {
		t.Errorf("sparse degraded routability: %.1f%% vs %.1f%%", sres.Routability(), dres.Routability())
	}
	t.Logf("sparse: searches=%d fallbacks=%d nodes=%d dense_expand=%d vs %d",
		searches, fallbacks, ssnap.Counter(obs.CtrSparseNodes), sexp, dexp)
}

// TestSparseFullInstanceDRCClean decomposes and verifies the sparse-routed
// result end to end: the paper's zero-conflict/zero-hard-overlay guarantee
// and DRC cleanliness must hold exactly as for the dense router.
func TestSparseFullInstanceDRCClean(t *testing.T) {
	if testing.Short() {
		t.Skip("routes and verifies a 220-track instance")
	}
	res, _ := routeSparse(t, true)
	layouts := res.Layouts()
	results, tot := decomp.DecomposeLayers(layouts)
	if tot.Conflicts != 0 || tot.HardOverlays != 0 || tot.Violations != 0 {
		t.Fatalf("guarantees violated: conf=%d hard=%d viol=%d", tot.Conflicts, tot.HardOverlays, tot.Violations)
	}
	var layers []drc.Layer
	for l, ly := range layouts {
		layers = append(layers, drc.FromDecomp(ly, results[l].Materials))
	}
	if rep := drc.CheckDesign(layers, rules.Node10nm()); !rep.Clean() {
		t.Fatalf("DRC violations on sparse-routed design: %+v %v", rep.Layers, rep.ConnErrs)
	}
	if res.Routability() < 90 {
		t.Errorf("routability %.1f%% below floor", res.Routability())
	}
}

// TestSparseDeterministic routes the same instance twice with the lever on
// and demands identical paths, colors and counters.
func TestSparseDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("routes a 220-track instance twice")
	}
	r1, s1 := routeSparse(t, true)
	r2, s2 := routeSparse(t, true)
	if !reflect.DeepEqual(r1.Paths, r2.Paths) {
		t.Fatal("paths differ between identical sparse runs")
	}
	if !reflect.DeepEqual(r1.Colors, r2.Colors) {
		t.Fatal("colors differ between identical sparse runs")
	}
	if s1.CountersString() != s2.CountersString() {
		t.Fatal("counters differ between identical sparse runs")
	}
}

// TestSparseGateKeepsSmallRunsIdentical proves the equivalence the CI
// smoke relies on: below the HPWL gate the corridor graph never engages,
// so a standard-cell-scale run is identical with the lever on or off.
func TestSparseGateKeepsSmallRunsIdentical(t *testing.T) {
	spec := bench.Spec{Name: "gate-t", Nets: 60, Tracks: 60, Layers: 3, Seed: 5,
		PinCandidates: 1, AvgHPWL: 6, Blockages: 2}
	nl := bench.Generate(spec)
	route := func(on bool) (*router.Result, obs.Snapshot) {
		opt := router.Defaults()
		opt.SparseSearch = on
		opt.Obs = obs.New()
		res := router.Route(nl, rules.Node10nm(), opt)
		return res, opt.Obs.Snapshot()
	}
	roff, soff := route(false)
	ron, son := route(true)
	if !reflect.DeepEqual(roff.Paths, ron.Paths) {
		t.Fatal("paths differ below the HPWL gate")
	}
	if son.Counter(obs.CtrSparseSearches) != 0 || son.Counter(obs.CtrSparseFallbacks) != 0 {
		t.Fatalf("corridor engaged below the gate: searches=%d", son.Counter(obs.CtrSparseSearches))
	}
	if soff.CountersString() != son.CountersString() {
		t.Fatal("counters differ below the HPWL gate")
	}
}
