package router_test

import (
	"strings"
	"testing"
	"time"

	"sadproute/internal/bench"
	"sadproute/internal/decomp"
	"sadproute/internal/grid"
	"sadproute/internal/netlist"
	"sadproute/internal/obs"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

func smallSpec(nets, tracks int, cands int, seed int64) bench.Spec {
	return bench.Spec{
		Name: "unit", Nets: nets, Tracks: tracks, Layers: 3,
		Seed: seed, PinCandidates: cands, AvgHPWL: tracks / 8, Blockages: 2,
	}
}

// TestRouteSmokeSmall routes a small random instance and checks the paper's
// headline guarantees against the decomposition oracle: zero cut conflicts,
// zero hard overlays, zero violations.
func TestRouteSmokeSmall(t *testing.T) {
	nl := bench.Generate(smallSpec(120, 40, 1, 7))
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	opt := router.Defaults()
	opt.Obs = obs.New()
	res := router.Route(nl, rules.Node10nm(), opt)
	if res.Routed == 0 {
		t.Fatal("routed no nets")
	}
	if res.Routability() < 70 {
		t.Errorf("routability %.1f%% too low", res.Routability())
	}
	_, tot := decomp.DecomposeLayers(res.Layouts())
	if tot.Conflicts != 0 {
		t.Errorf("cut conflicts = %d, want 0", tot.Conflicts)
	}
	if tot.HardOverlays != 0 {
		t.Errorf("hard overlays = %d, want 0", tot.HardOverlays)
	}
	if tot.Violations != 0 {
		t.Errorf("violations = %d, want 0", tot.Violations)
	}
	snap := opt.Obs.Snapshot()
	if snap.Counter(obs.CtrRouteAttempts) == 0 {
		t.Error("obs recorded no route attempts")
	}
	if snap.Counter(obs.CtrAstarSearches) == 0 {
		t.Error("obs recorded no A* searches")
	}
	t.Logf("routed %d/%d, WL=%d vias=%d ripups=%d overlay=%.1fu CPU=%v",
		res.Routed, res.Routed+res.Failed, res.WirelengthCells, res.Vias,
		snap.Counter(obs.CtrRouteRipups), tot.SideOverlayUnits, res.CPU)
}

// TestEveryNetEndsRoutedOrFailed routes the congested instance and the
// served jobs of the digest corpus, five of which used to strand nets that
// a repair-pass reroute ripped as blockers, and, unless -short, Huge1–3:
// every net must end routed or failed.
func TestEveryNetEndsRoutedOrFailed(t *testing.T) {
	specs := []bench.Spec{congestedSpec}
	for i := range servedDigestSeeds {
		specs = append(specs, servedDigestSpec(1001+int64(i)))
	}
	if !testing.Short() {
		specs = append(specs, bench.HugeSpecs()...)
	}
	for _, sp := range specs {
		nl := bench.Generate(sp)
		res := router.Route(nl, rules.Node10nm(), router.Defaults())
		if res.Routed+res.Failed != len(nl.Nets) {
			t.Errorf("%s: %d routed + %d failed of %d nets", sp.Name, res.Routed, res.Failed, len(nl.Nets))
		}
	}
}

// TestRouteMultiPin exercises multiple pin candidate locations.
func TestRouteMultiPin(t *testing.T) {
	nl := bench.Generate(smallSpec(80, 40, 3, 11))
	res := router.Route(nl, rules.Node10nm(), router.Defaults())
	if res.Routability() < 90 {
		t.Errorf("routability %.1f%%", res.Routability())
	}
	_, tot := decomp.DecomposeLayers(res.Layouts())
	if tot.Conflicts != 0 || tot.HardOverlays != 0 || tot.Violations != 0 {
		t.Errorf("conf=%d hard=%d viol=%d, want all 0", tot.Conflicts, tot.HardOverlays, tot.Violations)
	}
}

// TestPathsAreConnected verifies every routed path is a connected chain of
// grid-adjacent cells joining one candidate of each pin.
func TestPathsAreConnected(t *testing.T) {
	nl := bench.Generate(smallSpec(60, 32, 2, 3))
	res := router.Route(nl, rules.Node10nm(), router.Defaults())
	for id, path := range res.Paths {
		if len(path) == 0 {
			t.Fatalf("net %d: empty path", id)
		}
		for i := 1; i < len(path); i++ {
			d := absAll(path[i], path[i-1])
			if d != 1 {
				t.Errorf("net %d: discontinuous at step %d: %v -> %v", id, i, path[i-1], path[i])
			}
		}
		if !hasCand(nl.Nets[id].A, path[0]) || !hasCand(nl.Nets[id].B, path[len(path)-1]) {
			t.Errorf("net %d: endpoints %v..%v not at pin candidates", id, path[0], path[len(path)-1])
		}
	}
}

func hasCand(p netlist.Pin, c grid.Cell) bool {
	for _, x := range p.Candidates {
		if x == c {
			return true
		}
	}
	return false
}

func absAll(a, b grid.Cell) int {
	d := 0
	for _, v := range [3]int{a.X - b.X, a.Y - b.Y, a.L - b.L} {
		if v < 0 {
			v = -v
		}
		d += v
	}
	return d
}

// TestOptionsValidate checks that every option with a >= 0 domain is
// rejected when negative, by name, and that the defaults pass.
func TestOptionsValidate(t *testing.T) {
	if err := router.Defaults().Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for name, set := range map[string]func(*router.Options){
		"Alpha":      func(o *router.Options) { o.Alpha = -1 },
		"Beta":       func(o *router.Options) { o.Beta = -1 },
		"Gamma2":     func(o *router.Options) { o.Gamma2 = -1 },
		"DirPenalty": func(o *router.Options) { o.DirPenalty = -1 },
		"MaxRipup":   func(o *router.Options) { o.MaxRipup = -1 },
		"MaxExpand":  func(o *router.Options) { o.MaxExpand = -1 },
	} {
		opt := router.Defaults()
		set(&opt)
		err := opt.Validate()
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s = -1: Validate() = %v, want an error naming %s", name, err, name)
		}
	}
}

// TestNegativeWeightTerminates routes with the option set that used to
// search forever (a negative Alpha with no expansion budget): the engine
// refuses the negative weight, so every net fails fast instead.
func TestNegativeWeightTerminates(t *testing.T) {
	nl := bench.Generate(smallSpec(10, 16, 1, 3))
	opt := router.Defaults()
	opt.Alpha, opt.MaxExpand = -1, 0
	done := make(chan *router.Result, 1)
	go func() { done <- router.Route(nl, rules.Node10nm(), opt) }()
	select {
	case res := <-done:
		if res.Routed != 0 {
			t.Errorf("routed %d nets under a negative Alpha", res.Routed)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Route with Alpha = -1 did not terminate")
	}
}
