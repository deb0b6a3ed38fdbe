package ocg

import (
	"slices"
	"testing"

	"sadproute/internal/scenario"
)

// refGraph is the parity bookkeeping that rebuilds the whole forest from
// the sorted hard edges on every removal, the behaviour Graph's one-tree
// rebuild must reproduce.
type refGraph struct {
	prof        map[[2]int]scenario.Profile
	parent, par map[int]int
	odd         int
}

func newRefGraph() *refGraph {
	return &refGraph{prof: map[[2]int]scenario.Profile{}, parent: map[int]int{}, par: map[int]int{}}
}

func (r *refGraph) find(x int) (int, int) {
	p, ok := r.parent[x]
	if !ok || p == x {
		r.parent[x] = x
		return x, 0
	}
	root, rp := r.find(p)
	r.parent[x] = root
	r.par[x] ^= rp
	return root, r.par[x]
}

func (r *refGraph) union(a, b, parity int) bool {
	ra, pa := r.find(a)
	rb, pb := r.find(b)
	if ra == rb {
		return pa^pb == parity
	}
	r.parent[ra] = rb
	r.par[ra] = pa ^ pb ^ parity
	return true
}

func (r *refGraph) add(a, b int, p scenario.Profile) (odd, infeasible bool) {
	if a == b {
		return false, false
	}
	if a > b {
		a, b = b, a
		p = swapProfile(p)
	}
	key := [2]int{a, b}
	agg, had := r.prof[key]
	prevKind := Soft
	if had {
		prevKind = Kind(agg)
		for i := scenario.CC; i <= scenario.SS; i++ {
			agg.Cost[i] += p.Cost[i]
			agg.Forbidden[i] = agg.Forbidden[i] || p.Forbidden[i]
		}
	} else {
		agg = p
	}
	r.prof[key] = agg
	k := Kind(agg)
	if k == Contradiction {
		return false, true
	}
	if k == prevKind || k == Soft {
		return false, false
	}
	if !r.union(a, b, int(parityOf(k))) {
		r.odd++
		return true, false
	}
	return false, false
}

func (r *refGraph) remove(n int) {
	found := false
	for key := range r.prof {
		if key[0] == n || key[1] == n {
			delete(r.prof, key)
			found = true
		}
	}
	if !found {
		return
	}
	clear(r.parent)
	clear(r.par)
	r.odd = 0
	var keys [][2]int
	for key, p := range r.prof {
		if isHard(Kind(p)) {
			keys = append(keys, key)
		}
	}
	slices.SortFunc(keys, func(x, y [2]int) int {
		if x[0] != y[0] {
			return x[0] - y[0]
		}
		return x[1] - y[1]
	})
	for _, key := range keys {
		if !r.union(key[0], key[1], int(parityOf(Kind(r.prof[key])))) {
			r.odd++
		}
	}
}

func contradiction() scenario.Profile {
	p := hardDiff()
	p.Forbidden[scenario.CS], p.Forbidden[scenario.SC] = true, true
	return p
}

// fuzzProfiles are the profiles FuzzParityForest draws from: soft,
// one-sided forbidden (still soft), both hard kinds and a contradiction.
var fuzzProfiles = func() []scenario.Profile {
	oneSided := soft(10)
	oneSided.Forbidden[scenario.CC] = true
	return []scenario.Profile{soft(20), oneSided, hardSame(), hardDiff(), contradiction()}
}()

// FuzzParityForest drives random AddScenario and RemoveNet sequences over
// a dozen nets against refGraph, which rebuilds the whole forest on every
// removal. Each op is three bytes: kind (a profile or a removal), then
// two nets. Every AddScenario answer, OddCycles and EdgeCount must agree
// after every op; sequences that end without a removal leave odd cycles
// standing.
func FuzzParityForest(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 2, 3, 3, 1, 3, 5, 3, 0})
	// An odd cycle in {1,2,3} stands while {10,11} loses a net; then net 4
	// ties 1 and 2 to one color, which only a sorted rebuild refuses.
	f.Add([]byte{3, 2, 3, 3, 1, 3, 3, 1, 2, 3, 10, 11, 5, 11, 0, 2, 1, 4, 2, 2, 4})
	// A hard edge turns contradictory, then another tree loses a net.
	f.Add([]byte{3, 1, 2, 4, 1, 2, 3, 7, 8, 5, 8, 0, 2, 1, 3, 2, 2, 3})
	f.Add([]byte{0, 0, 1, 1, 1, 2, 5, 1, 1, 2, 0, 2, 4, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nets = 12
		g, ref := New(), newRefGraph()
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := int(data[i])%(len(fuzzProfiles)+1), int(data[i+1])%nets, int(data[i+2])%nets
			if op == len(fuzzProfiles) {
				g.RemoveNet(a)
				ref.remove(a)
			} else {
				odd, inf := g.AddScenario(a, b, fuzzProfiles[op])
				wantOdd, wantInf := ref.add(a, b, fuzzProfiles[op])
				if odd != wantOdd || inf != wantInf {
					t.Fatalf("op %d: AddScenario(%d, %d, %d) = (%v, %v), full rebuild says (%v, %v)",
						i/3, a, b, op, odd, inf, wantOdd, wantInf)
				}
			}
			if g.OddCycles != ref.odd {
				t.Fatalf("op %d: OddCycles = %d, full rebuild says %d", i/3, g.OddCycles, ref.odd)
			}
			if g.EdgeCount() != len(ref.prof) {
				t.Fatalf("op %d: %d edges, full rebuild has %d", i/3, g.EdgeCount(), len(ref.prof))
			}
		}
	})
}

// TestRemoveNetRebuildsAllWhenAnotherTreeHasOddCycle: an odd cycle that
// stands in a tree other than the removed net's makes RemoveNet rebuild
// the whole forest. The triangle's edges arrive out of sorted order, so
// its incremental forest refused (1,2) where a sorted rebuild refuses
// (2,3); a later pair of same-color edges to net 4 tells the two apart.
func TestRemoveNetRebuildsAllWhenAnotherTreeHasOddCycle(t *testing.T) {
	for _, remove := range []bool{false, true} {
		g := New()
		g.AddScenario(2, 3, hardDiff())
		g.AddScenario(1, 3, hardDiff())
		if odd, _ := g.AddScenario(1, 2, hardDiff()); !odd {
			t.Fatal("the triangle must close an odd cycle")
		}
		g.AddScenario(10, 11, hardSame())
		if remove {
			g.RemoveNet(11)
			if g.OddCycles != 1 {
				t.Fatalf("the triangle's odd cycle still stands, OddCycles = %d", g.OddCycles)
			}
		}
		g.AddScenario(1, 4, hardSame())
		// Incrementally 1 and 2 share a color (via 3); rebuilt in sorted
		// order they differ, so 2 = 4 = 1 closes an odd cycle.
		if odd, _ := g.AddScenario(2, 4, hardSame()); odd != remove {
			t.Fatalf("removed=%v: AddScenario(2, 4) odd = %v, want %v", remove, odd, remove)
		}
	}
}

// TestRemoveNetRebuildsAllWhenAnotherTreeHoldsContradiction: a hard edge
// that turned contradictory leaves its union in the forest until a
// rebuild drops it, so a removal in another tree rebuilds everything.
func TestRemoveNetRebuildsAllWhenAnotherTreeHoldsContradiction(t *testing.T) {
	for _, remove := range []bool{false, true} {
		g := New()
		g.AddScenario(1, 2, hardDiff())
		if _, inf := g.AddScenario(1, 2, hardSame()); !inf {
			t.Fatal("diff plus same must be infeasible")
		}
		g.AddScenario(7, 8, hardDiff())
		if remove {
			g.RemoveNet(8)
		}
		g.AddScenario(1, 3, hardSame())
		// With the stale union 1 != 2 held, 2 = 3 = 1 is odd; rebuilt
		// without the contradictory edge, 1 and 2 are unrelated.
		if odd, _ := g.AddScenario(2, 3, hardSame()); odd == remove {
			t.Fatalf("removed=%v: AddScenario(2, 3) odd = %v, want %v", remove, odd, !remove)
		}
	}
}

// TestRemoveNetRebuildsOneTree: removing a net of one tree leaves an odd
// cycle standing in it resolved and another tree's relations intact.
func TestRemoveNetRebuildsOneTree(t *testing.T) {
	g := New()
	g.AddScenario(1, 2, hardDiff())
	g.AddScenario(2, 3, hardDiff())
	g.AddScenario(1, 3, hardDiff())
	g.AddScenario(5, 6, hardDiff())
	g.AddScenario(6, 7, hardDiff())
	g.RemoveNet(3)
	if g.OddCycles != 0 {
		t.Fatalf("OddCycles = %d after removing a triangle vertex", g.OddCycles)
	}
	if odd, _ := g.AddScenario(5, 7, hardDiff()); !odd {
		t.Fatal("the untouched tree forgot that 5 and 7 share a color")
	}
	if odd, _ := g.AddScenario(1, 9, hardSame()); odd {
		t.Fatal("a fresh edge cannot close a cycle")
	}
}
