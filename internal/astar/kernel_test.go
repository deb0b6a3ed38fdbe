package astar

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

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

// refItem and refHeap are the three-field open list: container/heap over
// (f ascending, g descending, push sequence ascending) compares — the
// total order the kernel's bucket queue must pop exactly.
type refItem struct {
	c    grid.Cell
	f, g int
	seq  int
}

type refHeap []refItem

func (q refHeap) Len() int      { return len(q) }
func (q refHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q refHeap) Less(i, j int) bool {
	if q[i].f != q[j].f {
		return q[i].f < q[j].f
	}
	if q[i].g != q[j].g {
		return q[i].g > q[j].g
	}
	return q[i].seq < q[j].seq
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
	out                            Outcome
	expand, pushes, pops, heapPeak int
}

// refEstimate selects refSearch's estimate.
type refEstimate uint8

const (
	// refBounded is the kernel's estimate: Manhattan plus, off the
	// targets, the entry bound, capped at MaxCost.
	refBounded refEstimate = iota
	// refManhattan is the Manhattan estimate alone, which the entry bound
	// must not change a path of.
	refManhattan
	// refZero drops the estimate, which turns the search into Dijkstra —
	// the optimality oracle.
	refZero
)

// refEntry is the reference's entry bound: the least extra cost, by the
// reference's step rule, of entering an in-grid target net id may enter
// (the soft-occupancy toll plus the rip-up penalty), or 0 when that is
// negative. enterable reports whether net id may enter any target.
func refEntry(g *grid.Grid, id int32, targets []grid.Cell, cfg Config) (entry int, enterable bool) {
	least := 0
	for _, t := range targets {
		if !g.In(t) {
			continue
		}
		cost := 0
		if !g.FreeOrNet(t, id) {
			if cfg.SoftOccupied <= 0 || g.At(t) < 0 {
				continue
			}
			cost = cfg.SoftOccupied
		}
		if cfg.Pen != nil {
			cost += int(cfg.Pen[g.Index(t)])
		}
		if !enterable || cost < least {
			least, enterable = cost, true
		}
	}
	return max(least, 0), enterable
}

// refSearch is the reference the kernel is differentially checked
// against: closure-priced steps, map-based per-cell state, container/heap
// ordering and the estimate est. cost is the found path's cost. The
// outcome is Found, Aborted when the expansion budget runs out, and
// NoPath otherwise; the reference never sees a cost the kernel would
// refuse.
func refSearch(g *grid.Grid, id int32, sources, targets []grid.Cell, cfg Config, est refEstimate) (r refResult, cost int) {
	r.out = NoPath
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
	entry := 0
	if est == refBounded {
		entry, _ = refEntry(g, id, targets, cfg)
	}
	f := func(c grid.Cell, gc int) int {
		if est == refZero {
			return gc
		}
		best := -1
		for _, t := range targets {
			d := (absi(c.X-t.X)+absi(c.Y-t.Y))*cfg.WL + absi(c.L-t.L)*cfg.Via
			if best < 0 || d < best {
				best = d
			}
		}
		if goals[c] {
			return gc + best*Scale
		}
		return min(gc+best*Scale+entry, MaxCost)
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
		heap.Push(q, refItem{c: c, f: f(c, gc), g: gc, seq: r.pushes})
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
			r.out = Aborted
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
			r.out = Found
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
// 0..3 (the searching net may own some of them). Its dies may be one cell
// wide or high, where only the bounds every move checks keep it inside.
func kernelGrid(rng *rand.Rand) *grid.Grid {
	return kernelGridOf(rng, 1+rng.Intn(15), 1+rng.Intn(15), 1+rng.Intn(3))
}

// kernelGridOf draws kernelGrid's blockages and owned cells on a w×h×layers
// grid.
func kernelGridOf(rng *rand.Rand, w, h, layers int) *grid.Grid {
	g := grid.New(w, h, layers, rules.Node10nm())
	for i := rng.Intn(g.W*g.H/6 + 1); i > 0; i-- {
		x, y := rng.Intn(g.W), rng.Intn(g.H)
		g.Block(rng.Intn(g.Layers), geom.Rect{X0: x, Y0: y, X1: x + 1 + rng.Intn(3), Y1: y + 1 + rng.Intn(3)})
	}
	for i := rng.Intn(g.W*g.H*g.Layers/3 + 1); i > 0; i-- {
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

// checkKernel runs one search on the kernel and on the bounded reference
// and fails on any difference in outcome, path or statistics. It holds the
// kernel to the plain-Manhattan reference too: where that ends Found or
// NoPath, the kernel ends the same way on the same path, expanding no more
// nodes; where its budget runs out, the kernel ends Aborted, or Found at
// the cost the unbudgeted plain reference finds. For found paths it also
// checks Price against the search cost and, without an expansion budget,
// the cost against Dijkstra. A search with no enterable target is the
// exception: the kernel must end it NoPath before expanding, and the
// reference, run without an expansion budget, must prove NoPath.
func checkKernel(t *testing.T, e *Engine, g *grid.Grid, id int32, src, tgt []grid.Cell, cfg Config) {
	t.Helper()
	path, out := e.Search(id, src, tgt, cfg)
	got := refResult{
		path: path, out: out,
		expand: e.Expand, pushes: e.Pushes, pops: e.Pops, heapPeak: e.HeapPeak,
	}
	if _, enterable := refEntry(g, id, tgt, cfg); !enterable {
		unbounded := cfg
		unbounded.MaxExpand = 0
		if want, _ := refSearch(g, id, src, tgt, unbounded, refBounded); want.out != NoPath {
			t.Fatalf("no enterable target on %dx%dx%d grid, net %d, %v -> %v, cfg %+v, yet the reference ends %v with %v",
				g.W, g.H, g.Layers, id, src, tgt, cfg, want.out, want.path)
		}
		if !reflect.DeepEqual(got, refResult{out: NoPath}) {
			t.Fatalf("no enterable target on %dx%dx%d grid, net %d, %v -> %v, cfg %+v, yet the kernel searched: %+v",
				g.W, g.H, g.Layers, id, src, tgt, cfg, got)
		}
		return
	}
	want, cost := refSearch(g, id, src, tgt, cfg, refBounded)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kernel and reference disagree on %dx%dx%d grid, net %d, %v -> %v, cfg %+v:\nkernel    %+v\nreference %+v",
			g.W, g.H, g.Layers, id, src, tgt, cfg, got, want)
	}
	checkPlain(t, g, id, src, tgt, cfg, got, cost)
	if out != Found {
		return
	}
	if p, priced := e.Price(id, src, tgt, path, cfg); !priced || p != cost {
		t.Fatalf("Price = %d, %v; search cost %d", p, priced, cost)
	}
	if cfg.MaxExpand == 0 {
		if opt, optCost := refSearch(g, id, src, tgt, cfg, refZero); opt.out != Found || optCost != cost {
			t.Fatalf("A* cost %d, Dijkstra optimum %d (%v): estimate not admissible", cost, optCost, opt.out)
		}
	}
}

// checkPlain holds the kernel's result got, of path cost cost, to the
// plain-Manhattan reference: the entry bound may only cut expansions, or
// finish a search the plain estimate runs out of budget on, at the
// optimal cost.
func checkPlain(t *testing.T, g *grid.Grid, id int32, src, tgt []grid.Cell, cfg Config, got refResult, cost int) {
	t.Helper()
	plain, _ := refSearch(g, id, src, tgt, cfg, refManhattan)
	switch {
	case plain.out != Aborted:
		if got.out != plain.out || !reflect.DeepEqual(got.path, plain.path) || got.expand > plain.expand {
			t.Fatalf("the entry bound changed a search on %dx%dx%d grid, net %d, %v -> %v, cfg %+v:\nkernel %+v\nplain  %+v",
				g.W, g.H, g.Layers, id, src, tgt, cfg, got, plain)
		}
	case got.out == Found:
		unbudgeted := cfg
		unbudgeted.MaxExpand = 0
		if full, fullCost := refSearch(g, id, src, tgt, unbudgeted, refManhattan); full.out != Found || fullCost != cost {
			t.Fatalf("plain reference aborts, kernel finds cost %d, unbudgeted plain reference %v at cost %d",
				cost, full.out, fullCost)
		}
	case got.out != Aborted:
		t.Fatalf("plain reference aborts, kernel ends %v", got.out)
	}
}

// kernelOne checks a reused engine over several searches on one grid —
// stamps and pin marks must not leak between search ids — then a fresh
// engine on a second grid.
func kernelOne(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g := kernelGrid(rng)
	e := New(g)
	for k := 0; k < 3; k++ {
		id, src, tgt, cfg := kernelQuery(rng, g)
		checkKernel(t, e, g, id, src, tgt, cfg)
	}
	g2 := kernelGrid(rng)
	id, src, tgt, cfg := kernelQuery(rng, g2)
	checkKernel(t, New(g2), g2, id, src, tgt, cfg)
}

// TestNodeSize pins the per-cell search record at 8 bytes: it is the
// largest per-cell array the router holds on a huge die.
func TestNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(node{}); n != 8 {
		t.Fatalf("node is %d bytes, want 8", n)
	}
}

// TestSearchIDWraparound checks searches across the search-id limit
// against the reference, each found path priced after its search. One
// engine searches a grid at the lowest ids, jumps to a few searches below
// maxSearchID, searches across the wrap and goes on searching the same
// grid. The ids after the wrap repeat the first searches' ids, so a record
// the wrap left behind would pass for current.
func TestSearchIDWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := kernelGridOf(rng, 14, 14, 3)
	e := New(g)
	for range 12 {
		id, src, tgt, cfg := kernelQuery(rng, g)
		checkKernel(t, e, g, id, src, tgt, cfg)
	}
	low := e.cur
	e.cur = maxSearchID - 3
	for range 4 {
		id, src, tgt, cfg := kernelQuery(rng, g)
		checkKernel(t, e, g, id, src, tgt, cfg)
	}
	if e.cur >= low {
		t.Fatalf("search id %d after the wrap, want below the first searches' %d", e.cur, low)
	}
	for range 12 {
		id, src, tgt, cfg := kernelQuery(rng, g)
		checkKernel(t, e, g, id, src, tgt, cfg)
	}
}

// TestKernelMatchesReference is the deterministic slice of FuzzAstarKernel.
func TestKernelMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		kernelOne(t, seed)
	}
}

// FuzzAstarKernel is the differential bar for the inline-priced kernel:
// on random grids with blockages, foreign and own cells, penalty planes,
// multi-candidate pins, random cost weights and expansion budgets, it must
// return the bounded reference search's outcome, path and
// Expand/Pushes/Pops/HeapPeak, and the plain-Manhattan reference's path
// and outcome with no more expansions (checkKernel). The corpus
// seeds 2067, 2133 and 2056 open with a target owned by another net, a
// blocked target under SoftOccupied, and a target owned by the searching
// net: the first two end before expanding, the third searches.
func FuzzAstarKernel(f *testing.F) {
	for s := int64(0); s < 16; s++ {
		f.Add(s)
	}
	f.Fuzz(kernelOne)
}

// checkEntryBound holds one search to both references (checkKernel) and
// requires the entry bound to at least halve the plain estimate's
// expansions.
func checkEntryBound(t *testing.T, g *grid.Grid, id int32, src, tgt []grid.Cell, cfg Config) {
	t.Helper()
	e := New(g)
	checkKernel(t, e, g, id, src, tgt, cfg)
	plain, _ := refSearch(g, id, src, tgt, cfg, refManhattan)
	if plain.out != Found || 2*e.Expand > plain.expand {
		t.Fatalf("entry bound: %d expansions, plain estimate %d (%v); want at most half", e.Expand, plain.expand, plain.out)
	}
}

// TestEntryBoundPenalizedTarget: a reroute whose target, and the ring of
// cells around it, carry rip-up penalty from earlier attempts; the target
// carries the most, as every rerouted path of the net ends on it. The
// Manhattan estimate ignores the penalty and floods every cell cheaper
// than it; the entry bound charges the target's penalty up front and
// finds the same path.
func TestEntryBoundPenalizedTarget(t *testing.T) {
	g := mk(32, 32, 2)
	src, tgt := []grid.Cell{{X: 2, Y: 16}}, []grid.Cell{{X: 29, Y: 16}}
	pen := make([]int32, g.W*g.H*g.Layers)
	for l := range g.Layers {
		for y := 15; y <= 17; y++ {
			for x := 28; x <= 30; x++ {
				pen[g.Index(grid.Cell{X: x, Y: y, L: l})] = 8
			}
		}
	}
	pen[g.Index(tgt[0])] = 24
	checkEntryBound(t, g, 0, src, tgt, Config{WL: 1, Via: 1, Pen: pen, PinVia: 12, Gamma2: 3, DirPenalty: 2})
}

// TestEntryBoundBlockerProbe: a blocker probe, whose target is another
// net's cell, passable under SoftOccupied. The Manhattan estimate ignores
// the toll every path pays to enter the target; the entry bound charges it.
func TestEntryBoundBlockerProbe(t *testing.T) {
	g := mk(32, 32, 2)
	src, tgt := []grid.Cell{{X: 2, Y: 16}}, []grid.Cell{{X: 29, Y: 16}}
	g.Occupy(tgt[0], 7)
	checkEntryBound(t, g, 1, src, tgt, Config{WL: 1, Via: 1, Gamma2: 3, DirPenalty: 2, SoftOccupied: 80})
}

// TestPackedKeyOrder checks the queue's (f, sub) order against the
// three-field compare on the boundary values of the documented cost range
// and of the push sequence.
func TestPackedKeyOrder(t *testing.T) {
	vals := []int{0, 1, 2, 1 << 30, MaxCost - 1, MaxCost}
	seqs := []int{0, 1, 1 << 31, 1<<32 - 1}
	less := func(a, b item) bool { return a.f < b.f || a.f == b.f && a.sub < b.sub }
	for _, f1 := range vals {
		for _, g1 := range vals {
			for _, f2 := range vals {
				for _, g2 := range vals {
					if g1 > f1 || g2 > f2 {
						continue
					}
					for _, s1 := range seqs {
						for _, s2 := range seqs {
							want := refHeap{{f: f1, g: g1, seq: s1}, {f: f2, g: g2, seq: s2}}.Less(0, 1)
							a := item{sub: subKey(g1, uint32(s1)), f: int32(f1)}
							b := item{sub: subKey(g2, uint32(s2)), f: int32(f2)}
							if got := less(a, b); got != want {
								t.Fatalf("(f=%d,g=%d,seq=%d) < (f=%d,g=%d,seq=%d): queue %v, three-field %v", f1, g1, s1, f2, g2, s2, got, want)
							}
							if a.g() != g1 {
								t.Fatalf("subKey(%d, %d) unpacks g = %d", g1, s1, a.g())
							}
						}
					}
				}
			}
		}
	}
}

// TestCostCeiling pins the range guard: a path cost of exactly MaxCost is
// searchable, and so is a search whose entry bound carries an estimate
// past MaxCost (it is capped there), while a cost beyond it, a negative
// weight, a negative penalty or one that lowers the estimate below the f
// being expanded ends the search Invalid instead of breaking the open
// list's order.
func TestCostCeiling(t *testing.T) {
	g := mk(2, 1, 1)
	pen := []int32{0, MaxCost}
	src, tgt := []grid.Cell{{X: 0}}, []grid.Cell{{X: 1}}
	e := New(g)
	if path, out := e.Search(0, src, tgt, Config{Pen: pen}); out != Found || len(path) != 2 {
		t.Fatalf("cost MaxCost must be searchable: outcome %v, path %v", out, path)
	}
	if cost, ok := e.Price(0, src, tgt, []grid.Cell{{X: 0}, {X: 1}}, Config{Pen: pen}); !ok || cost != MaxCost {
		t.Fatalf("Price = %d, %v; want MaxCost", cost, ok)
	}
	// The entry bound carries cell 0, off the path from cell 1 to the last
	// cell, past MaxCost: to a tie with the target at MaxCost, and to 5,000
	// past the f of the source, where an uncapped f would wrap into the
	// bucket window ahead of the path. Capped, both searches find their
	// path, as the plain estimate does.
	for _, pen := range [][]int32{{0, 0, MaxCost - Scale}, {4996, 0, 1000, MaxCost - 2000}} {
		g := mk(len(pen), 1, 1)
		src, tgt := []grid.Cell{{X: 1}}, []grid.Cell{{X: len(pen) - 1}}
		cfg := Config{WL: 1, Pen: pen}
		if path, out := New(g).Search(0, src, tgt, cfg); out != Found || len(path) != len(pen)-1 {
			t.Fatalf("entry bound past MaxCost, Pen %v: outcome %v, path %v; want the found path", pen, out, path)
		}
		checkKernel(t, New(g), g, 0, src, tgt, cfg)
	}
	for name, cfg := range map[string]Config{
		"cost MaxCost+2": {WL: 1, Pen: pen},
		"negative WL":    {WL: -1},
		"negative Pen":   {Pen: []int32{0, -1}},
		"falling f":      {WL: 1, Pen: []int32{0, -1}},
	} {
		if path, out := e.Search(0, src, tgt, cfg); out != Invalid {
			t.Errorf("%s: outcome %v with path %v, want Invalid", name, out, path)
		}
	}
	// A negative Pen entry ends the search Invalid on the step into its
	// cell, whether that cell is fresh or already reached (here a second
	// source, reached before the first expansion), and whether the step is
	// a planar move or a via.
	for name, q := range map[string]struct {
		w, h, layers int
		src          []grid.Cell
		neg, tgt     grid.Cell
	}{
		"negative Pen, fresh cell, planar":   {3, 1, 1, []grid.Cell{{X: 0}}, grid.Cell{X: 1}, grid.Cell{X: 2}},
		"negative Pen, reached cell, planar": {3, 1, 1, []grid.Cell{{X: 0}, {X: 1}}, grid.Cell{X: 0}, grid.Cell{X: 2}},
		"negative Pen, fresh cell, via":      {1, 1, 3, []grid.Cell{{L: 0}}, grid.Cell{L: 1}, grid.Cell{L: 2}},
		"negative Pen, reached cell, via":    {1, 1, 3, []grid.Cell{{L: 0}, {L: 1}}, grid.Cell{L: 0}, grid.Cell{L: 2}},
	} {
		g := mk(q.w, q.h, q.layers)
		pen := make([]int32, g.Len())
		pen[g.Index(q.neg)] = -5
		cfg := Config{WL: 1, Via: 1, Pen: pen, Gamma2: 3}
		if path, out := New(g).Search(0, q.src, []grid.Cell{q.tgt}, cfg); out != Invalid {
			t.Errorf("%s: outcome %v with path %v, want Invalid", name, out, path)
		}
	}
	if _, ok := e.Price(0, src, tgt, []grid.Cell{{X: 0}, {X: 1}}, Config{Via: -1}); ok {
		t.Error("Price accepted a negative weight")
	}
	// The refusals leave the engine usable.
	if _, out := e.Search(0, src, tgt, Config{WL: 1}); out != Found {
		t.Errorf("engine unusable after a refused search: outcome %v", out)
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
