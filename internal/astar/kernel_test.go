package astar

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"

	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/rules"
)

// refStepCost prices one move for the reference search: the base weight
// plus every eq. (5) term, computed by a closure over a pin set and
// cell-coordinate lookups, independently of the kernel's inline pricing.
// ok=false forbids the move.
func refStepCost(g *grid.Grid, id int32, cfg Config, pins map[grid.Cell]bool) func(from, to grid.Cell) (int, bool) {
	return func(from, to grid.Cell) (int, bool) {
		cost := cfg.WL * Scale
		if to.L != from.L {
			cost = cfg.Via * Scale
		}
		if !g.FreeOrNet(to, id) {
			if cfg.SoftOccupied <= 0 || g.At(to) < 0 {
				return 0, false
			}
			cost += cfg.SoftOccupied
		}
		if cfg.Pen != nil {
			cost += int(cfg.Pen[g.Index(to)])
		}
		if to.L != from.L {
			if pins[from] || pins[to] {
				cost += cfg.PinVia
			}
			return cost, true
		}
		if cfg.Gamma2 > 0 {
			ahead := grid.Cell{X: 2*to.X - from.X, Y: 2*to.Y - from.Y, L: to.L}
			if g.In(ahead) {
				if v := g.At(ahead); v >= 0 && v != id {
					cost += cfg.Gamma2
				}
			}
		}
		if cfg.DirPenalty > 0 && (to.X != from.X) != (to.L%2 == 0) {
			cost += cfg.DirPenalty
		}
		return cost, true
	}
}

// refItem and refHeap are the two-field open list: container/heap over
// (f ascending, g descending) compares — the order the packed kernel key
// must reproduce exactly.
type refItem struct {
	c    grid.Cell
	f, g int
}

type refHeap []refItem

func (q refHeap) Len() int      { return len(q) }
func (q refHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q refHeap) Less(i, j int) bool {
	if q[i].f != q[j].f {
		return q[i].f < q[j].f
	}
	return q[i].g > q[j].g
}
func (q *refHeap) Push(x any) { *q = append(*q, x.(refItem)) }
func (q *refHeap) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// refResult is everything a search reports that the kernel must match.
type refResult struct {
	path                           []grid.Cell
	ok                             bool
	expand, pushes, pops, heapPeak int
}

// refSearch is the reference the kernel is differentially checked
// against: closure-priced steps, map-based per-cell state, container/heap
// ordering and the admissible heuristic. zeroH drops the heuristic, which
// turns the search into Dijkstra — the optimality oracle. cost is the
// found path's cost.
func refSearch(g *grid.Grid, id int32, sources, targets []grid.Cell, cfg Config, zeroH bool) (r refResult, cost int) {
	if len(sources) == 0 || len(targets) == 0 {
		return r, 0
	}
	pins := map[grid.Cell]bool{}
	goals := map[grid.Cell]bool{}
	for _, s := range sources {
		pins[s] = true
	}
	for _, t := range targets {
		pins[t] = true
		if g.In(t) {
			goals[t] = true
		}
	}
	if len(goals) == 0 {
		return r, 0
	}
	step := refStepCost(g, id, cfg, pins)
	h := func(c grid.Cell) int {
		if zeroH {
			return 0
		}
		best := -1
		for _, t := range targets {
			d := (absi(c.X-t.X)+absi(c.Y-t.Y))*cfg.WL + absi(c.L-t.L)*cfg.Via
			if best < 0 || d < best {
				best = d
			}
		}
		return best * Scale
	}
	dist := map[grid.Cell]int{}
	parent := map[grid.Cell]grid.Cell{}
	q := &refHeap{}
	push := func(c grid.Cell, gc int, from *grid.Cell) {
		if d, seen := dist[c]; seen && d <= gc {
			return
		}
		dist[c] = gc
		if from != nil {
			parent[c] = *from
		} else {
			delete(parent, c)
		}
		heap.Push(q, refItem{c: c, f: gc + h(c), g: gc})
		r.pushes++
		r.heapPeak = max(r.heapPeak, q.Len())
	}
	for _, s := range sources {
		if g.In(s) && g.FreeOrNet(s, id) {
			push(s, 0, nil)
		}
	}
	for q.Len() > 0 {
		it := heap.Pop(q).(refItem)
		r.pops++
		if dist[it.c] < it.g {
			continue
		}
		r.expand++
		if cfg.MaxExpand > 0 && r.expand > cfg.MaxExpand {
			return r, 0
		}
		if goals[it.c] {
			for c := it.c; ; {
				r.path = append([]grid.Cell{c}, r.path...)
				p, ok := parent[c]
				if !ok {
					break
				}
				c = p
			}
			r.ok = true
			return r, it.g
		}
		c := it.c
		for _, m := range moves {
			nc := grid.Cell{X: c.X + m.X, Y: c.Y + m.Y, L: c.L + m.L}
			if !g.In(nc) {
				continue
			}
			if sc, ok := step(c, nc); ok {
				push(nc, it.g+sc, &c)
			}
		}
	}
	return r, 0
}

// kernelCell draws a cell of g, or rarely one just outside it: candidate
// lists may name cells the grid does not hold.
func kernelCell(rng *rand.Rand, g *grid.Grid) grid.Cell {
	if rng.Intn(12) == 0 {
		return grid.Cell{X: g.W, Y: rng.Intn(g.H), L: rng.Intn(g.Layers)}
	}
	return grid.Cell{X: rng.Intn(g.W), Y: rng.Intn(g.H), L: rng.Intn(g.Layers)}
}

// kernelGrid draws a small grid with blockages and cells owned by nets
// 0..3 (the searching net may own some of them).
func kernelGrid(rng *rand.Rand) *grid.Grid {
	g := grid.New(2+rng.Intn(14), 2+rng.Intn(14), 1+rng.Intn(3), rules.Node10nm())
	for i := rng.Intn(g.W*g.H/6 + 1); i > 0; i-- {
		x, y := rng.Intn(g.W), rng.Intn(g.H)
		g.Block(rng.Intn(g.Layers), geom.Rect{X0: x, Y0: y, X1: x + 1 + rng.Intn(3), Y1: y + 1 + rng.Intn(3)})
	}
	for i := rng.Intn(g.W * g.H / 3 * g.Layers); i > 0; i-- {
		if c := kernelCell(rng, g); g.In(c) && g.At(c) == grid.Free {
			g.Occupy(c, int32(rng.Intn(4)))
		}
	}
	return g
}

// kernelQuery draws a search against g: net id, multi-candidate pins, an
// optional penalty plane and random eq. (5) weights.
func kernelQuery(rng *rand.Rand, g *grid.Grid) (int32, []grid.Cell, []grid.Cell, Config) {
	id := int32(rng.Intn(5))
	var src, tgt []grid.Cell
	for i := 1 + rng.Intn(3); i > 0; i-- {
		src = append(src, kernelCell(rng, g))
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		tgt = append(tgt, kernelCell(rng, g))
	}
	cfg := Config{
		WL:         rng.Intn(4),
		Via:        rng.Intn(4),
		PinVia:     rng.Intn(3) * 6,
		Gamma2:     rng.Intn(7),
		DirPenalty: rng.Intn(4),
	}
	if rng.Intn(4) != 0 {
		cfg.Pen = make([]int32, g.W*g.H*g.Layers)
		for i := range cfg.Pen {
			if rng.Intn(4) == 0 {
				cfg.Pen[i] = int32(rng.Intn(40))
			}
		}
	}
	if rng.Intn(3) == 0 {
		cfg.SoftOccupied = 1 + rng.Intn(40)
	}
	if rng.Intn(4) == 0 {
		cfg.MaxExpand = 1 + rng.Intn(g.W*g.H*g.Layers)
	}
	return id, src, tgt, cfg
}

// checkKernel runs one search on the kernel and on the reference and fails
// on any difference in path or statistics; for found paths it
// also checks Price against the search cost and, without an expansion
// budget, the cost against Dijkstra.
func checkKernel(t *testing.T, e *Engine, g *grid.Grid, id int32, src, tgt []grid.Cell, cfg Config) {
	t.Helper()
	path, ok := e.Search(id, src, tgt, cfg)
	want, cost := refSearch(g, id, src, tgt, cfg, false)
	got := refResult{
		path: path, ok: ok,
		expand: e.Expand, pushes: e.Pushes, pops: e.Pops, heapPeak: e.HeapPeak,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kernel and reference disagree on %dx%dx%d grid, net %d, %v -> %v, cfg %+v:\nkernel    %+v\nreference %+v",
			g.W, g.H, g.Layers, id, src, tgt, cfg, got, want)
	}
	if !ok {
		return
	}
	if p, priced := e.Price(id, src, tgt, path, cfg); !priced || p != cost {
		t.Fatalf("Price = %d, %v; search cost %d", p, priced, cost)
	}
	if cfg.MaxExpand == 0 {
		if opt, optCost := refSearch(g, id, src, tgt, cfg, true); !opt.ok || optCost != cost {
			t.Fatalf("A* cost %d, Dijkstra optimum %d (ok=%v): heuristic not admissible", cost, optCost, opt.ok)
		}
	}
}

// kernelOne checks a reused engine over several searches on one grid —
// stamps and pin marks must not leak between search ids — then rebinds it
// to a second grid.
func kernelOne(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g := kernelGrid(rng)
	e := New(g)
	for k := 0; k < 3; k++ {
		id, src, tgt, cfg := kernelQuery(rng, g)
		checkKernel(t, e, g, id, src, tgt, cfg)
	}
	g2 := kernelGrid(rng)
	e.Bind(g2)
	id, src, tgt, cfg := kernelQuery(rng, g2)
	checkKernel(t, e, g2, id, src, tgt, cfg)
}

// TestKernelMatchesReference is the deterministic slice of FuzzAstarKernel.
func TestKernelMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		kernelOne(t, seed)
	}
}

// FuzzAstarKernel is the differential bar for the inline-priced kernel:
// on random grids with blockages, foreign and own cells, penalty planes,
// multi-candidate pins and random cost weights, it must return the
// reference search's path and Expand/Pushes/Pops/HeapPeak.
func FuzzAstarKernel(f *testing.F) {
	for s := int64(0); s < 16; s++ {
		f.Add(s)
	}
	f.Fuzz(kernelOne)
}

// TestPackedKeyOrder checks the packed key against the two-field compare
// on the boundary values of the documented cost range.
func TestPackedKeyOrder(t *testing.T) {
	vals := []int{0, 1, 2, 1 << 30, MaxCost - 1, MaxCost}
	for _, f1 := range vals {
		for _, g1 := range vals {
			for _, f2 := range vals {
				for _, g2 := range vals {
					if g1 > f1 || g2 > f2 {
						continue
					}
					want := refHeap{{f: f1, g: g1}, {f: f2, g: g2}}.Less(0, 1)
					if got := pack(f1, g1) < pack(f2, g2); got != want {
						t.Fatalf("(f=%d,g=%d) < (f=%d,g=%d): packed %v, two-field %v", f1, g1, f2, g2, got, want)
					}
				}
			}
		}
	}
}

// TestCostCeiling pins the range guard: a path cost of exactly MaxCost is
// searchable, while a cost beyond it, a negative weight or a negative
// penalty ends the search with no path instead of wrapping the packed key.
func TestCostCeiling(t *testing.T) {
	g := mk(2, 1, 1)
	pen := []int32{0, MaxCost}
	src, tgt := []grid.Cell{{X: 0}}, []grid.Cell{{X: 1}}
	e := New(g)
	if path, ok := e.Search(0, src, tgt, Config{Pen: pen}); !ok || len(path) != 2 {
		t.Fatalf("cost MaxCost must be searchable: ok=%v path=%v", ok, path)
	}
	if cost, ok := e.Price(0, src, tgt, []grid.Cell{{X: 0}, {X: 1}}, Config{Pen: pen}); !ok || cost != MaxCost {
		t.Fatalf("Price = %d, %v; want MaxCost", cost, ok)
	}
	for name, cfg := range map[string]Config{
		"cost MaxCost+2": {WL: 1, Pen: pen},
		"negative WL":    {WL: -1},
		"negative Pen":   {Pen: []int32{0, -1}},
	} {
		if path, ok := e.Search(0, src, tgt, cfg); ok {
			t.Errorf("%s: Search found %v", name, path)
		}
	}
	if _, ok := e.Price(0, src, tgt, []grid.Cell{{X: 0}, {X: 1}}, Config{Via: -1}); ok {
		t.Error("Price accepted a negative weight")
	}
	// The refusals leave the engine usable.
	if _, ok := e.Search(0, src, tgt, Config{WL: 1}); !ok {
		t.Error("engine unusable after a refused search")
	}
}

// TestPriceRejects covers Price's refusals: a step that is not a unit move
// and a step into a foreign net's cell.
func TestPriceRejects(t *testing.T) {
	g := mk(4, 1, 1)
	g.Occupy(grid.Cell{X: 2}, 9)
	e := New(g)
	src, tgt := []grid.Cell{{X: 0}}, []grid.Cell{{X: 3}}
	if _, ok := e.Price(0, src, tgt, []grid.Cell{{X: 0}, {X: 2}}, Config{WL: 1}); ok {
		t.Error("Price accepted a two-cell jump")
	}
	if _, ok := e.Price(0, src, tgt, []grid.Cell{{X: 0}, {X: 1}, {X: 2}}, Config{WL: 1}); ok {
		t.Error("Price accepted a step into a foreign net's cell")
	}
	if cost, ok := e.Price(9, src, tgt, []grid.Cell{{X: 0}, {X: 1}, {X: 2}, {X: 3}}, Config{WL: 1}); !ok || cost != 3*Scale {
		t.Errorf("own-net path: Price = %d, %v; want %d", cost, ok, 3*Scale)
	}
}
