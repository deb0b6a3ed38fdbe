package sparse

import (
	"math/rand"
	"testing"

	"sadproute/internal/astar"
	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/rules"
)

func mk(w, h, l int) *grid.Grid { return grid.New(w, h, l, rules.Node10nm()) }

// denseCfg is the corridor cost model expressed as a dense engine Config:
// the differential tests run the dense engine under it, so both engines
// price the identical cost function and must agree on the optimum.
func denseCfg(cfg Config) astar.Config {
	return astar.Config{WL: cfg.WL, Via: cfg.Via, DirPenalty: cfg.DirPenalty, PinVia: cfg.PinVia}
}

// price computes a path's cost under the corridor model, independently of
// both engines.
func price(path []grid.Cell, pins map[grid.Cell]bool, cfg Config) int {
	total := 0
	for i := 1; i < len(path); i++ {
		from, to := path[i-1], path[i]
		if to.L != from.L {
			total += cfg.Via * astar.Scale
			if pins[from] || pins[to] {
				total += cfg.PinVia
			}
			continue
		}
		total += cfg.WL * astar.Scale
		if horiz := to.X != from.X; horiz != (to.L%2 == 0) {
			total += cfg.DirPenalty
		}
	}
	return total
}

func pinSet(src, tgt []grid.Cell) map[grid.Cell]bool {
	m := map[grid.Cell]bool{}
	for _, c := range src {
		m[c] = true
	}
	for _, c := range tgt {
		m[c] = true
	}
	return m
}

// checkPath asserts a snapped path is a chain of unit steps over free
// cells from a source to a target.
func checkPath(t *testing.T, g *grid.Grid, src, tgt []grid.Cell, path []grid.Cell) {
	t.Helper()
	if len(path) == 0 {
		t.Fatal("empty path")
	}
	in := func(cs []grid.Cell, c grid.Cell) bool {
		for _, v := range cs {
			if v == c {
				return true
			}
		}
		return false
	}
	if !in(src, path[0]) {
		t.Fatalf("path starts at %v, not a source", path[0])
	}
	if !in(tgt, path[len(path)-1]) {
		t.Fatalf("path ends at %v, not a target", path[len(path)-1])
	}
	for i, c := range path {
		if !g.In(c) {
			t.Fatalf("cell %v out of bounds", c)
		}
		if g.At(c) != grid.Free {
			t.Fatalf("cell %v not free (%d)", c, g.At(c))
		}
		if i == 0 {
			continue
		}
		p := path[i-1]
		d := absi(c.X-p.X) + absi(c.Y-p.Y) + absi(c.L-p.L)
		if d != 1 {
			t.Fatalf("non-unit step %v -> %v", p, c)
		}
	}
}

var baseCfg = Config{WL: 1, Via: 1, DirPenalty: 2, PinVia: 12}

// searchBoth runs the corridor engine and the dense engine under the same
// cost model and cross-checks the outcome and optimal cost; it returns the
// corridor result.
func searchBoth(t *testing.T, g *grid.Grid, src, tgt []grid.Cell, cfg Config) ([]grid.Cell, int, astar.Outcome) {
	t.Helper()
	sp := NewGraph(g)
	e := NewEngine(sp)
	path, cost, out := e.Search(src, tgt, cfg)
	pins := pinSet(src, tgt)
	dpath, dout := astar.New(g).Search(0, src, tgt, denseCfg(cfg))
	if out != dout {
		t.Fatalf("outcomes disagree: sparse %v, dense %v", out, dout)
	}
	if out == astar.Found {
		checkPath(t, g, src, tgt, path)
		if got := price(path, pins, cfg); got != cost {
			t.Fatalf("reported cost %d != repriced %d", cost, got)
		}
		if dcost := price(dpath, pins, cfg); dcost != cost {
			t.Fatalf("sparse cost %d != dense optimum %d", cost, dcost)
		}
	}
	return path, cost, out
}

func TestZeroObstacleDieSingleCorridor(t *testing.T) {
	g := mk(64, 48, 2)
	src := []grid.Cell{{X: 3, Y: 5}}
	tgt := []grid.Cell{{X: 60, Y: 40}}
	sp := NewGraph(g)
	e := NewEngine(sp)
	_, _, out := e.Search(src, tgt, baseCfg)
	if out != astar.Found {
		t.Fatalf("out=%v", out)
	}
	// An empty die contributes no obstacle boundaries: the snapshot is die
	// edges plus pin coordinates only, independent of die area.
	if len(e.xs) > 2+6 || len(e.ys) > 2+6 {
		t.Fatalf("snapshot not sparse on empty die: %d x %d coords", len(e.xs), len(e.ys))
	}
	searchBoth(t, g, src, tgt, baseCfg)
}

func TestFullyBlockedRowSplitsDie(t *testing.T) {
	g := mk(32, 32, 1)
	g.Block(0, geom.Rect{X0: 0, Y0: 16, X1: 32, Y1: 17})
	_, _, out := searchBoth(t, g, []grid.Cell{{X: 4, Y: 4}}, []grid.Cell{{X: 4, Y: 28}}, baseCfg)
	if out != astar.NoPath {
		t.Fatalf("a fully blocked row must split a single-layer die, got %v", out)
	}
	// The same wall on one layer of a two-layer die is bypassed by vias.
	g2 := mk(32, 32, 2)
	g2.Block(0, geom.Rect{X0: 0, Y0: 16, X1: 32, Y1: 17})
	_, _, out = searchBoth(t, g2, []grid.Cell{{X: 4, Y: 4}}, []grid.Cell{{X: 4, Y: 28}}, baseCfg)
	if out != astar.Found {
		t.Fatalf("two-layer die must route around the wall, got %v", out)
	}
}

func TestAdjacentBlockagesShareBoundary(t *testing.T) {
	// Two abutting blockages form one obstacle: the shared internal edge
	// at x=16 must not leave dangling boundary counts, and the corridor
	// search must treat the union as a single wall with a gap above it.
	g := mk(32, 32, 1)
	g.Block(0, geom.Rect{X0: 8, Y0: 0, X1: 16, Y1: 24})
	g.Block(0, geom.Rect{X0: 16, Y0: 0, X1: 24, Y1: 24})
	sp := NewGraph(g)
	for x := 9; x < 23; x++ {
		if sp.cntX[x] != 0 {
			t.Fatalf("interior column %d of merged blockage is marked interesting (%d)", x, sp.cntX[x])
		}
	}
	if sp.cntX[7] == 0 || sp.cntX[24] == 0 {
		t.Fatal("outer boundary columns must be interesting")
	}
	path, _, out := searchBoth(t, g, []grid.Cell{{X: 2, Y: 2}}, []grid.Cell{{X: 30, Y: 2}}, baseCfg)
	if out != astar.Found {
		t.Fatalf("gap above the wall exists, got %v", out)
	}
	for _, c := range path {
		if c.Y >= 24 || c.X < 8 || c.X >= 24 {
			continue
		}
		t.Fatalf("path crosses merged blockage at %v", c)
	}
}

func TestCorridorSnapsAtDieEdges(t *testing.T) {
	// A wall one row below the top edge leaves a single-cell corridor
	// along y=0; the optimal path must squeeze through it, touching cells
	// whose coordinates only the die-edge rule makes interesting.
	g := mk(40, 16, 1)
	g.Block(0, geom.Rect{X0: 10, Y0: 1, X1: 30, Y1: 16})
	path, _, out := searchBoth(t, g, []grid.Cell{{X: 2, Y: 8}}, []grid.Cell{{X: 38, Y: 8}}, baseCfg)
	if out != astar.Found {
		t.Fatalf("edge corridor exists, got %v", out)
	}
	edge := false
	for _, c := range path {
		if c.Y == 0 {
			edge = true
		}
	}
	if !edge {
		t.Fatal("path must use the die-edge corridor at y=0")
	}
}

func TestPinOnDieCornerRoutes(t *testing.T) {
	g := mk(24, 24, 2)
	searchBoth(t, g, []grid.Cell{{X: 0, Y: 0}}, []grid.Cell{{X: 23, Y: 23}}, baseCfg)
}

func TestOccupiedTargetUnreachable(t *testing.T) {
	g := mk(16, 16, 1)
	tgt := grid.Cell{X: 10, Y: 10}
	g.Occupy(tgt, 3)
	_, _, out := searchBoth(t, g, []grid.Cell{{X: 2, Y: 2}}, []grid.Cell{tgt}, baseCfg)
	if out != astar.NoPath {
		t.Fatalf("occupied target must be unreachable, got %v", out)
	}
}

func TestSourceEqualsTarget(t *testing.T) {
	g := mk(16, 16, 1)
	c := grid.Cell{X: 5, Y: 5}
	path, cost, out := searchBoth(t, g, []grid.Cell{c}, []grid.Cell{c}, baseCfg)
	if out != astar.Found || cost != 0 || len(path) != 1 || path[0] != c {
		t.Fatalf("trivial search: path=%v cost=%d out=%v", path, cost, out)
	}
}

// graphsEqual compares the full derived state of two graphs.
func graphsEqual(a, b *Graph) bool {
	if a.W != b.W || a.H != b.H || a.Layers != b.Layers {
		return false
	}
	for x := 0; x < a.W; x++ {
		if a.cntX[x] != b.cntX[x] {
			return false
		}
	}
	for y := 0; y < a.H; y++ {
		if a.cntY[y] != b.cntY[y] {
			return false
		}
	}
	for l := 0; l < a.Layers; l++ {
		for y := 0; y < a.H; y++ {
			ai, bi := a.rowFree[l][y].Intervals(), b.rowFree[l][y].Intervals()
			if len(ai) != len(bi) {
				return false
			}
			for k := range ai {
				if ai[k] != bi[k] {
					return false
				}
			}
		}
		for x := 0; x < a.W; x++ {
			ai, bi := a.colFree[l][x].Intervals(), b.colFree[l][x].Intervals()
			if len(ai) != len(bi) {
				return false
			}
			for k := range ai {
				if ai[k] != bi[k] {
					return false
				}
			}
		}
	}
	return true
}

func TestIncrementalUpdatesMatchRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := mk(48, 40, 3)
	g.Block(1, geom.Rect{X0: 10, Y0: 10, X1: 20, Y1: 30})
	sp := NewGraph(g)
	var owned []grid.Cell
	for step := 0; step < 4000; step++ {
		if len(owned) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(owned))
			c := owned[k]
			owned = append(owned[:k], owned[k+1:]...)
			g.Release(c)
			sp.Release(c)
		} else {
			c := grid.Cell{X: rng.Intn(g.W), Y: rng.Intn(g.H), L: rng.Intn(g.Layers)}
			if g.At(c) != grid.Free {
				continue
			}
			g.Occupy(c, 1)
			sp.Occupy(c)
			owned = append(owned, c)
		}
		if step%500 == 0 {
			if !graphsEqual(sp, NewGraph(g)) {
				t.Fatalf("incremental graph diverged from rebuild at step %d", step)
			}
		}
	}
	if !graphsEqual(sp, NewGraph(g)) {
		t.Fatal("incremental graph diverged from rebuild at end")
	}
}

// randInstance builds a random low-congestion multi-layer instance with
// blockages, committed foreign nets, and multi-candidate pins.
func randInstance(rng *rand.Rand) (*grid.Grid, []grid.Cell, []grid.Cell) {
	w, h := 8+rng.Intn(40), 8+rng.Intn(40)
	layers := 1 + rng.Intn(3)
	g := grid.New(w, h, layers, rules.Node10nm())
	for i, nb := 0, rng.Intn(5); i < nb; i++ {
		bw, bh := 1+rng.Intn(w/2), 1+rng.Intn(h/2)
		x0, y0 := rng.Intn(w-bw+1), rng.Intn(h-bh+1)
		g.Block(rng.Intn(layers), geom.Rect{X0: x0, Y0: y0, X1: x0 + bw, Y1: y0 + bh})
	}
	for i, no := 0, rng.Intn(40); i < no; i++ {
		c := grid.Cell{X: rng.Intn(w), Y: rng.Intn(h), L: rng.Intn(layers)}
		if g.At(c) == grid.Free {
			g.Occupy(c, int32(1+rng.Intn(4)))
		}
	}
	pick := func(n int) []grid.Cell {
		var out []grid.Cell
		for tries := 0; len(out) < n && tries < 50; tries++ {
			c := grid.Cell{X: rng.Intn(w), Y: rng.Intn(h), L: rng.Intn(layers)}
			if g.At(c) == grid.Free {
				out = append(out, c)
			}
		}
		return out
	}
	return g, pick(1 + rng.Intn(3)), pick(1 + rng.Intn(3))
}

func randCfg(rng *rand.Rand) Config {
	return Config{
		WL:         1 + rng.Intn(3),
		Via:        rng.Intn(5),
		DirPenalty: rng.Intn(4),
		PinVia:     rng.Intn(3) * 6,
	}
}

// diffOne cross-checks one random instance; shared by the deterministic
// differential test and the fuzz target.
func diffOne(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g, src, tgt := randInstance(rng)
	if len(src) == 0 || len(tgt) == 0 {
		return
	}
	cfg := randCfg(rng)
	sp := NewGraph(g)
	e := NewEngine(sp)
	path, cost, out := e.Search(src, tgt, cfg)
	pins := pinSet(src, tgt)
	dpath, dout := astar.New(g).Search(0, src, tgt, denseCfg(cfg))
	if out != dout {
		t.Fatalf("seed %d: outcomes disagree: sparse %v, dense %v", seed, out, dout)
	}
	if out != astar.Found {
		return
	}
	checkPath(t, g, src, tgt, path)
	if got := price(path, pins, cfg); got != cost {
		t.Fatalf("seed %d: reported cost %d != repriced %d", seed, cost, got)
	}
	if dcost := price(dpath, pins, cfg); dcost != cost {
		t.Fatalf("seed %d: sparse cost %d, dense optimum %d", seed, cost, dcost)
	}
}

func TestDifferentialVsDense(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		diffOne(t, seed)
	}
}

// FuzzSparseDense is the differential correctness bar: on arbitrary
// instances the corridor engine and the dense engine must agree on the
// outcome and on the optimal cost under the shared uniform model.
func FuzzSparseDense(f *testing.F) {
	for s := int64(0); s < 16; s++ {
		f.Add(s)
	}
	f.Fuzz(diffOne)
}

// TestMetamorphicMirror mirrors an instance across the x axis: the
// passable region is isomorphic, so the optimal cost must be identical.
func TestMetamorphicMirror(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		g, src, tgt := randInstance(rng)
		if len(src) == 0 || len(tgt) == 0 {
			continue
		}
		cfg := randCfg(rng)
		mg := grid.New(g.W, g.H, g.Layers, rules.Node10nm())
		for l := 0; l < g.Layers; l++ {
			for y := 0; y < g.H; y++ {
				for x := 0; x < g.W; x++ {
					c := grid.Cell{X: x, Y: y, L: l}
					mc := grid.Cell{X: g.W - 1 - x, Y: y, L: l}
					switch v := g.At(c); v {
					case grid.Free:
					case grid.Blocked:
						mg.Block(l, geom.Rect{X0: mc.X, Y0: mc.Y, X1: mc.X + 1, Y1: mc.Y + 1})
					default:
						mg.Occupy(mc, v)
					}
				}
			}
		}
		mirror := func(cs []grid.Cell) []grid.Cell {
			out := make([]grid.Cell, len(cs))
			for i, c := range cs {
				out[i] = grid.Cell{X: g.W - 1 - c.X, Y: c.Y, L: c.L}
			}
			return out
		}
		_, cost, out := NewEngine(NewGraph(g)).Search(src, tgt, cfg)
		_, mcost, mout := NewEngine(NewGraph(mg)).Search(mirror(src), mirror(tgt), cfg)
		if out != mout || (out == astar.Found && cost != mcost) {
			t.Fatalf("seed %d: mirror changed outcome: (%v,%d) vs (%v,%d)", seed, out, cost, mout, mcost)
		}
	}
}

// TestMetamorphicTranslation embeds an instance at two offsets inside a
// larger die whose surroundings are blocked: the optimal cost must not
// depend on the placement.
func TestMetamorphicTranslation(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		g, src, tgt := randInstance(rng)
		if len(src) == 0 || len(tgt) == 0 {
			continue
		}
		cfg := randCfg(rng)
		embed := func(dx, dy int) ([]grid.Cell, int, astar.Outcome) {
			big := grid.New(g.W+10, g.H+10, g.Layers, rules.Node10nm())
			for l := 0; l < g.Layers; l++ {
				// Block everything, then carve the translated instance.
				big.Block(l, geom.Rect{X0: 0, Y0: 0, X1: big.W, Y1: big.H})
			}
			for l := 0; l < g.Layers; l++ {
				for y := 0; y < g.H; y++ {
					for x := 0; x < g.W; x++ {
						v := g.At(grid.Cell{X: x, Y: y, L: l})
						tc := grid.Cell{X: x + dx, Y: y + dy, L: l}
						if v != grid.Blocked {
							// Occupy writes the raw state, so it also carves
							// Free back out of the blocked frame.
							big.Occupy(tc, v)
						}
					}
				}
			}
			move := func(cs []grid.Cell) []grid.Cell {
				out := make([]grid.Cell, len(cs))
				for i, c := range cs {
					out[i] = grid.Cell{X: c.X + dx, Y: c.Y + dy, L: c.L}
				}
				return out
			}
			_, cost, out := NewEngine(NewGraph(big)).Search(move(src), move(tgt), cfg)
			return nil, cost, out
		}
		_, c1, o1 := embed(0, 0)
		_, c2, o2 := embed(7, 4)
		if o1 != o2 || (o1 == astar.Found && c1 != c2) {
			t.Fatalf("seed %d: translation changed outcome: (%v,%d) vs (%v,%d)", seed, o1, c1, o2, c2)
		}
	}
}
