package colorflip

import (
	"testing"

	"sadproute/internal/decomp"
	"sadproute/internal/geom"
	"sadproute/internal/ocg"
	"sadproute/internal/rules"
	"sadproute/internal/scenario"
)

// FuzzColorFlip checks the flipping DP (Theorem 4) against brute force:
// build an overlay constraint graph from fuzzed wire geometry, enumerate
// all 2^n color assignments, and require Optimize to hit the exact optimum
// of the spanning-tree objective it minimizes. Also checks determinism and
// that feasible results satisfy every hard edge when no odd cycle exists.
func FuzzColorFlip(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{7, 200, 13, 13, 14, 15, 80, 81, 82, 3, 9, 27, 81, 243, 729 % 256})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ds := rules.Node10nm()
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return int(b)
		}
		n := 2 + next()%8 // 2..9 nets: brute force stays tiny
		wires := make([]geom.Rect, n)
		for i := range wires {
			horiz := next()%2 == 1
			fixed := next() % 12
			c0 := next() % 12
			c1 := c0 + 1 + next()%8
			if horiz {
				wires[i] = geom.Rect{X0: c0, Y0: fixed, X1: c1 + 1, Y1: fixed + 1}
			} else {
				wires[i] = geom.Rect{X0: fixed, Y0: c0, X1: fixed + 1, Y1: c1 + 1}
			}
		}
		g := ocg.New()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if prof, ok := scenario.Classify(wires[i], wires[j], ds); ok {
					g.AddScenario(i, j, prof)
				}
			}
		}
		nets := make([]int, n)
		for i := range nets {
			nets[i] = i
		}

		res := Optimize(g, nets)
		res2 := Optimize(g, nets)
		if res.Cost != res2.Cost || res.Feasible != res2.Feasible {
			t.Fatalf("Optimize is nondeterministic: %+v vs %+v", res, res2)
		}
		for k, v := range res.Colors {
			if res2.Colors[k] != v {
				t.Fatalf("Optimize colors nondeterministic at net %d", k)
			}
		}

		// Brute-force the exact objective the DP minimizes: the sum of
		// oriented assignment costs over the maximum spanning tree.
		var built Tree
		built.Build(nets, g.ComponentEdges(nets))
		tree := built.tree
		treeCost := func(colors []decomp.Color) int {
			total := 0
			for _, e := range tree {
				total = addSat(total, assignCostRaw(e.Prof, colors[e.A], colors[e.B]))
			}
			return total
		}
		best := inf
		colors := make([]decomp.Color, n)
		for mask := 0; mask < 1<<n; mask++ {
			for i := range colors {
				colors[i] = decomp.Core
				if mask&(1<<i) != 0 {
					colors[i] = decomp.Second
				}
			}
			if c := treeCost(colors); c < best {
				best = c
			}
		}
		if res.Cost != best {
			t.Fatalf("DP cost %d != brute-force optimum %d (n=%d, %d tree edges)",
				res.Cost, best, n, len(tree))
		}
		if res.Feasible != (best < inf) {
			t.Fatalf("Feasible=%v but brute-force optimum is %d", res.Feasible, best)
		}

		// The DP's own assignment must achieve its reported cost.
		got := make([]decomp.Color, n)
		for i := range got {
			got[i] = res.Colors[i]
		}
		if c := treeCost(got); c != res.Cost {
			t.Fatalf("returned assignment costs %d, reported %d", c, res.Cost)
		}

		// With no odd cycle, a feasible assignment satisfies every hard
		// edge of the graph — tree or not (even hard cycles are implied).
		if g.OddCycles == 0 && res.Feasible {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					e := g.EdgeBetween(i, j)
					if e == nil {
						continue
					}
					switch ocg.Kind(e.Prof) {
					case ocg.HardDiff:
						if got[i] == got[j] {
							t.Fatalf("hard-diff edge (%d,%d) violated by %v", i, j, got)
						}
					case ocg.HardSame:
						if got[i] != got[j] {
							t.Fatalf("hard-same edge (%d,%d) violated by %v", i, j, got)
						}
					}
				}
			}
		}
	})
}
