package ocg

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sadproute/internal/scenario"
)

func hardDiff() scenario.Profile {
	var p scenario.Profile
	p.Type = "1-a"
	p.Forbidden[scenario.CC], p.Forbidden[scenario.SS] = true, true
	return p
}

func hardSame() scenario.Profile {
	var p scenario.Profile
	p.Type = "1-b"
	p.Forbidden[scenario.CS], p.Forbidden[scenario.SC] = true, true
	return p
}

func soft(cost int) scenario.Profile {
	var p scenario.Profile
	p.Type = "3-a"
	p.Cost[scenario.CS], p.Cost[scenario.SC] = cost, cost
	return p
}

func TestOddCycleDetection(t *testing.T) {
	g := New()
	// Triangle of different-color constraints: classic odd cycle.
	if odd, inf := g.AddScenario(1, 2, hardDiff()); odd || inf {
		t.Fatal("first edge cannot be a cycle")
	}
	if odd, inf := g.AddScenario(2, 3, hardDiff()); odd || inf {
		t.Fatal("second edge cannot be a cycle")
	}
	odd, inf := g.AddScenario(1, 3, hardDiff())
	if !odd || inf {
		t.Fatalf("closing triangle must report odd cycle (odd=%v inf=%v)", odd, inf)
	}
}

func TestEvenCycleOK(t *testing.T) {
	g := New()
	g.AddScenario(1, 2, hardDiff())
	g.AddScenario(2, 3, hardDiff())
	if odd, _ := g.AddScenario(1, 3, hardSame()); odd {
		t.Fatal("diff+diff+same is an even (consistent) cycle")
	}
}

func TestContradictionDetection(t *testing.T) {
	g := New()
	g.AddScenario(1, 2, hardDiff())
	_, inf := g.AddScenario(1, 2, hardSame())
	if !inf {
		t.Fatal("same pair with diff+same constraints must be infeasible")
	}
}

func TestRemoveNetClearsOddCycle(t *testing.T) {
	g := New()
	g.AddScenario(1, 2, hardDiff())
	g.AddScenario(2, 3, hardDiff())
	g.AddScenario(1, 3, hardDiff())
	if g.OddCycles == 0 {
		t.Fatal("expected an odd cycle")
	}
	g.RemoveNet(3)
	if g.OddCycles != 0 {
		t.Fatalf("odd cycle must vanish after removing a participant, got %d", g.OddCycles)
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("one edge should remain, got %d", g.EdgeCount())
	}
}

func TestAggregation(t *testing.T) {
	g := New()
	g.AddScenario(1, 2, soft(20))
	g.AddScenario(1, 2, soft(30))
	e := g.EdgeBetween(1, 2)
	if e == nil || e.Count != 2 || e.Prof.Cost[scenario.CS] != 50 {
		t.Fatalf("aggregation wrong: %+v", e)
	}
}

func TestProfileOrientation(t *testing.T) {
	g := New()
	var p scenario.Profile
	p.Cost[scenario.CS] = 77 // A core, B second costs 77
	g.AddScenario(5, 2, p)   // stored with A=2 after normalization
	e := g.EdgeBetween(2, 5)
	if e == nil {
		t.Fatal("edge missing")
	}
	// Oriented back for net 5 as role A, CS must cost 77 again.
	if got := e.ProfileFor(5).Cost[scenario.CS]; got != 77 {
		t.Fatalf("oriented cost = %d, want 77", got)
	}
	if got := e.ProfileFor(2).Cost[scenario.SC]; got != 77 {
		t.Fatalf("mirror cost = %d, want 77", got)
	}
}

func TestComponent(t *testing.T) {
	g := New()
	g.AddScenario(1, 2, soft(1))
	g.AddScenario(2, 3, soft(1))
	g.AddScenario(7, 8, soft(1))
	comp, edges := g.Component(1, nil, nil)
	if len(comp) != 3 || comp[0] != 1 || comp[2] != 3 {
		t.Fatalf("component: %v", comp)
	}
	if len(edges) != 2 {
		t.Fatal("component edges wrong")
	}
	// Component appends: what the buffers held stays in front.
	comp, edges = g.Component(8, []int{9}, edges[:1])
	if !slices.Equal(comp, []int{9, 7, 8}) || len(edges) != 2 || edges[1] != g.EdgeBetween(7, 8) {
		t.Fatalf("appended component: %v, %d edges", comp, len(edges))
	}
}

// TestComponentEdgesOneWalk checks that Component's edges are exactly the
// edges EdgeBetween finds among its nets, sorted by (A, B), on random
// graphs with rip-ups, with one pair of buffers reused for every walk.
func TestComponentEdgesOneWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for range 50 {
		g := New()
		n := 2 + rng.Intn(30)
		for range rng.Intn(3 * n) {
			g.AddScenario(rng.Intn(n), rng.Intn(n), soft(1+rng.Intn(5)))
			if rng.Intn(8) == 0 {
				g.RemoveNet(rng.Intn(n))
			}
		}
		var nets []int
		var edges []*Edge
		for v := range n {
			nets, edges = g.Component(v, nets[:0], edges[:0])
			var want []*Edge
			for i, a := range nets {
				for _, b := range nets[i+1:] {
					if e := g.EdgeBetween(a, b); e != nil {
						want = append(want, e)
					}
				}
			}
			if !slices.Equal(edges, want) {
				t.Fatalf("component of %d: one walk gives %d edges, EdgeBetween %d", v, len(edges), len(want))
			}
		}
	}
}

// TestQuickParityMatchesBruteForce: the incremental odd-cycle detector must
// agree with brute-force 2-coloring feasibility on random hard-edge graphs.
func TestQuickParityMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 8
		g := New()
		type edge struct{ a, b, parity int }
		var edges []edge
		anyOdd := false
		for i := 0; i < 12; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			parity := rng.Intn(2)
			prof := hardSame()
			if parity == 1 {
				prof = hardDiff()
			}
			odd, inf := g.AddScenario(a, b, prof)
			edges = append(edges, edge{a, b, parity})
			if odd || inf {
				anyOdd = true
			}
		}
		// Brute force: is there a 2-coloring satisfying all edges?
		feasible := false
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for _, e := range edges {
				if ((mask>>e.a)^(mask>>e.b))&1 != e.parity {
					ok = false
					break
				}
			}
			if ok {
				feasible = true
				break
			}
		}
		return anyOdd != feasible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
