package colorflip

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sadproute/internal/decomp"
	"sadproute/internal/ocg"
	"sadproute/internal/scenario"
)

func softProfile(rng *rand.Rand) scenario.Profile {
	var p scenario.Profile
	p.Type = "rand"
	for a := scenario.CC; a <= scenario.SS; a++ {
		p.Cost[a] = rng.Intn(5) * 20
	}
	// Keep symmetric-feasible: never forbid everything.
	if rng.Intn(3) == 0 {
		p.Forbidden[scenario.CC], p.Forbidden[scenario.SS] = true, true
	} else if rng.Intn(3) == 0 {
		p.Forbidden[scenario.CS], p.Forbidden[scenario.SC] = true, true
	}
	return p
}

// treeCost evaluates an assignment over the given edges (inf-free check).
func treeCost(edges []*ocg.Edge, colors map[int]decomp.Color) (int, bool) {
	total := 0
	for _, e := range edges {
		a := scenario.Of(colors[e.A], colors[e.B])
		if e.Prof.Forbidden[a] {
			return 0, false
		}
		total += e.Prof.Cost[a]
	}
	return total, true
}

// TestQuickDPOptimalOnTrees is the Theorem 4 property test: on random TREE
// constraint graphs the flipping DP must find an assignment whose cost
// equals the brute-force optimum.
func TestQuickDPOptimalOnTrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		g := ocg.New()
		// Random tree: connect node i to a random earlier node.
		for i := 1; i < n; i++ {
			parent := rng.Intn(i)
			g.AddScenario(parent, i, softProfile(rng))
		}
		nets := make([]int, n)
		for i := range nets {
			nets[i] = i
		}
		res := Optimize(g, nets)

		_, edges := g.Component(0, nil, nil)
		// Brute force optimum.
		best := -1
		for mask := 0; mask < 1<<n; mask++ {
			cols := map[int]decomp.Color{}
			for i := 0; i < n; i++ {
				cols[i] = decomp.Core
				if mask&(1<<i) != 0 {
					cols[i] = decomp.Second
				}
			}
			if c, ok := treeCost(edges, cols); ok && (best < 0 || c < best) {
				best = c
			}
		}
		got, ok := treeCost(edges, res.Colors)
		if best < 0 {
			return !res.Feasible || !ok
		}
		return ok && got == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDPRespectsLocks: a locked net keeps its color and the rest adapts.
func TestDPRespectsLocks(t *testing.T) {
	g := ocg.New()
	var diff scenario.Profile
	diff.Forbidden[scenario.CC], diff.Forbidden[scenario.SS] = true, true
	g.AddScenario(0, 1, diff)
	g.AddScenario(1, 2, diff)
	locks := map[int]decomp.Color{0: decomp.Second}
	res := OptimizeLocked(g, []int{0, 1, 2}, locks)
	if !res.Feasible {
		t.Fatal("chain must be feasible")
	}
	if res.Colors[0] != decomp.Second || res.Colors[1] != decomp.Core || res.Colors[2] != decomp.Second {
		t.Fatalf("lock not honored: %v", res.Colors)
	}
}

// TestPseudoColorPicksCheapest: against a single core neighbor with a
// same-color preference, the new net must take core.
func TestPseudoColorPicksCheapest(t *testing.T) {
	g := ocg.New()
	var p scenario.Profile
	p.Cost[scenario.CS], p.Cost[scenario.SC] = 40, 40 // different colors cost
	g.AddScenario(0, 1, p)
	colors := map[int]decomp.Color{0: decomp.Core}
	if got := PseudoColor(g, 1, colors); got != decomp.Core {
		t.Fatalf("pseudo color = %v, want core", got)
	}
	colors[0] = decomp.Second
	if got := PseudoColor(g, 1, colors); got != decomp.Second {
		t.Fatalf("pseudo color = %v, want second", got)
	}
}

// TestHardEdgesAlwaysSatisfied: on random graphs (with cycles), every hard
// edge that the parity structure accepted must be satisfied by the DP
// result — off-tree hard edges close even cycles, which tree assignments
// satisfy automatically.
func TestHardEdgesAlwaysSatisfied(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(7)
		g := ocg.New()
		for i := 0; i < 2*n; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			var p scenario.Profile
			if rng.Intn(2) == 0 {
				p.Forbidden[scenario.CC], p.Forbidden[scenario.SS] = true, true
			} else {
				p.Forbidden[scenario.CS], p.Forbidden[scenario.SC] = true, true
			}
			if odd, inf := g.AddScenario(a, b, p); odd || inf {
				return true // infeasible graphs are out of scope here
			}
		}
		nets, edges := g.Component(0, nil, nil)
		res := Optimize(g, nets)
		if !res.Feasible {
			return true
		}
		for _, e := range edges {
			a := scenario.Of(res.Colors[e.A], res.Colors[e.B])
			if e.Prof.Forbidden[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTreeRebuiltInPlace: one Tree rebuilt for component after component,
// larger and smaller, solves each exactly as a fresh Tree does, under
// random locks.
func TestTreeRebuiltInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var reused Tree
	var nets []int
	var edges []*ocg.Edge
	for range 200 {
		g := ocg.New()
		n := 2 + rng.Intn(25)
		for range rng.Intn(3 * n) {
			g.AddScenario(rng.Intn(n), rng.Intn(n), softProfile(rng))
		}
		locks := map[int]decomp.Color{}
		for range rng.Intn(3) {
			locks[rng.Intn(n)] = decomp.Color(1 + rng.Intn(2))
		}
		nets, edges = g.Component(rng.Intn(n), nets[:0], edges[:0])
		reused.Build(nets, edges)
		var fresh Tree
		fresh.Build(nets, edges)
		if got, want := reused.Solve(locks, nil), fresh.Solve(locks, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("rebuilt tree solves %+v, fresh tree %+v", got, want)
		}
	}
}
