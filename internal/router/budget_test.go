package router_test

import (
	"bytes"
	"strings"
	"testing"

	"sadproute/internal/grid"
	"sadproute/internal/netlist"
	"sadproute/internal/obs"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// walledNetlist is one layer, 40x8 tracks. Net 0 (HPWL 7) routes first,
// straight down column 20, and walls the die in two. Net 1 (HPWL 20) has a
// pin on each side: its search floods the 160 cells left of the wall and
// ends NoPath.
func walledNetlist() *netlist.Netlist {
	pin := func(x, y int) netlist.Pin { return netlist.Pin{Candidates: []grid.Cell{{X: x, Y: y}}} }
	return &netlist.Netlist{
		Name: "walled", W: 40, H: 8, Layers: 1,
		Nets: []netlist.Net{
			{ID: 0, Name: "wall", A: pin(20, 0), B: pin(20, 7)},
			{ID: 1, Name: "walled", A: pin(10, 3), B: pin(30, 3)},
		},
	}
}

// routeWalled routes walledNetlist under maxExpand and returns the result,
// the counters, the per-net table and the trace.
func routeWalled(t *testing.T, maxExpand int) (*router.Result, obs.Snapshot, []obs.NetStat, string) {
	t.Helper()
	nl := walledNetlist()
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	var tr bytes.Buffer
	rec.SetTrace(&tr)
	opt := router.Defaults()
	opt.MaxExpand = maxExpand
	opt.Obs = rec
	res := router.Route(nl, rules.Node10nm(), opt)
	if err := rec.TraceErr(); err != nil {
		t.Fatal(err)
	}
	return res, rec.Snapshot(), rec.NetStats(), tr.String()
}

// netStat returns net id's row of the per-net table.
func netStat(t *testing.T, rec []obs.NetStat, id int) obs.NetStat {
	t.Helper()
	for _, ns := range rec {
		if ns.Net == id {
			return ns
		}
	}
	t.Fatalf("net %d has no per-net row", id)
	return obs.NetStat{}
}

// TestBlockerProbeOnlyAfterNoPath pins both branches of a failed search.
// Under the default budget the walled net's search ends NoPath, the
// blocker probe names the wall net, which is ripped and rerouted, and both
// nets end routed. Under a budget that the wall net's search fits in but
// the walled net's flood does not, the search ends Aborted: the net fails
// with reason budget after exactly one search, no probe runs and the wall
// stays routed.
func TestBlockerProbeOnlyAfterNoPath(t *testing.T) {
	t.Run("no_path", func(t *testing.T) {
		res, snap, stats, tr := routeWalled(t, router.Defaults().MaxExpand)
		if !strings.Contains(tr, `"ev":"ripup","net":0,"cause":"blocker","for":1`) {
			t.Errorf("no blocker rip-up of the wall net:\n%s", tr)
		}
		if strings.Contains(tr, `"route_fail"`) {
			t.Errorf("a net failed:\n%s", tr)
		}
		// The search, the probe after its NoPath, and the retry.
		if got := netStat(t, stats, 1).Searches; got != 3 {
			t.Errorf("walled net ran %d searches, want 3", got)
		}
		if res.Routed != 2 || res.Failed != 0 || len(res.Paths) != 2 {
			t.Errorf("routed %d, failed %d, %d paths; want both nets routed", res.Routed, res.Failed, len(res.Paths))
		}
		if got := snap.Counter(obs.CtrBlockerRips); got != 1 {
			t.Errorf("router.blocker_rips = %d, want 1", got)
		}
	})
	t.Run("budget", func(t *testing.T) {
		const budget = 100
		res, snap, stats, tr := routeWalled(t, budget)
		if !strings.Contains(tr, `"ev":"route_fail","net":1,"reason":"budget"`) {
			t.Errorf("walled net did not fail for its budget:\n%s", tr)
		}
		if strings.Contains(tr, `"ev":"ripup"`) {
			t.Errorf("a net was ripped up:\n%s", tr)
		}
		// One search per net: the walled net's aborted at the pop past its
		// budget, and no probe followed it.
		if got := snap.Counter(obs.CtrAstarSearches); got != 2 {
			t.Errorf("astar.searches = %d, want 2", got)
		}
		if ns := netStat(t, stats, 1); ns.Searches != 1 || ns.Expanded != budget+1 {
			t.Errorf("walled net: %d searches, %d expanded; want 1 search of %d", ns.Searches, ns.Expanded, budget+1)
		}
		if got := snap.Counter(obs.CtrNoPath); got != 1 {
			t.Errorf("router.no_path = %d, want 1", got)
		}
		if _, ok := res.Paths[0]; !ok || res.Routed != 1 || res.Failed != 1 {
			t.Errorf("routed %d, failed %d, wall routed %v; want the wall routed and the walled net failed", res.Routed, res.Failed, ok)
		}
	})
}
