package router_test

import (
	"reflect"
	"testing"

	"sadproute/internal/bench"
	"sadproute/internal/obs"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// TestRipupAccelerationsMatchSerial proves, inside the router package,
// that the acceleration of the rip-up-and-reroute loop — the
// decomposition memo cache behind every window check and repair pass,
// with and without Paranoid deep copies — leaves the route shape
// untouched: same paths, colors, totals and rip-up count as the uncached
// run on a congested instance that exercises the repair loop, and no
// cached Result written through.
func TestRipupAccelerationsMatchSerial(t *testing.T) {
	nl := bench.Generate(smallSpec(150, 36, 2, 5))
	route := func(cache, paranoid bool) (*router.Result, obs.Snapshot) {
		opt := router.Defaults()
		opt.DecompCache = cache
		opt.DecompParanoid = paranoid
		opt.Obs = obs.New()
		res := router.Route(nl, rules.Node10nm(), opt)
		if err := res.DecompCacheCheck(); err != nil {
			t.Fatalf("cache=%v paranoid=%v: %v", cache, paranoid, err)
		}
		return res, opt.Obs.Snapshot()
	}
	base, baseSnap := route(false, false)
	ripups := baseSnap.Counter(obs.CtrRouteRipups)
	if ripups == 0 {
		t.Fatal("instance never ripped up a net: the repair loop is not exercised")
	}
	for _, c := range []struct {
		name            string
		cache, paranoid bool
	}{
		{"cached", true, false},
		{"paranoid", true, true},
	} {
		res, snap := route(c.cache, c.paranoid)
		if res.Routed != base.Routed || res.Failed != base.Failed ||
			res.WirelengthCells != base.WirelengthCells || res.Vias != base.Vias {
			t.Errorf("%s: totals diverged: routed %d/%d failed %d/%d wl %d/%d vias %d/%d",
				c.name, res.Routed, base.Routed, res.Failed, base.Failed,
				res.WirelengthCells, base.WirelengthCells, res.Vias, base.Vias)
		}
		if !reflect.DeepEqual(res.Paths, base.Paths) {
			t.Errorf("%s: paths diverged from the uncached run", c.name)
		}
		if !reflect.DeepEqual(res.Colors, base.Colors) {
			t.Errorf("%s: colors diverged from the uncached run", c.name)
		}
		if got := snap.Counter(obs.CtrRouteRipups); got != ripups {
			t.Errorf("%s: %d rip-ups, uncached run had %d", c.name, got, ripups)
		}
		if snap.Counter(obs.CtrDecompCacheHits) == 0 {
			t.Errorf("%s: the cache never hit, so the run did not exercise it", c.name)
		}
	}
}
