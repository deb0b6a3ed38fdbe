// Package colorflip implements the paper's linear-time color flipping
// algorithm (Section III-C): extract a maximum spanning tree from each
// overlay-constraint-graph component (hard edges outweigh any nonhard
// total), split every vertex into a core and a second node to form the
// flipping graph, and run the dynamic program of equation (4) from the
// leaves to the root; backtracing yields the optimal color assignment of
// the tree in O(V+E) (Theorem 4).
//
// It also provides the O(1) pseudo-coloring step used right after a net is
// routed (line 11 of the paper's Fig. 19).
package colorflip

import (
	"cmp"
	"slices"

	"sadproute/internal/decomp"
	"sadproute/internal/obs"
	"sadproute/internal/ocg"
	"sadproute/internal/scenario"
)

// inf is an effectively infinite cost for forbidden assignments.
const inf = int(1) << 40

// PseudoColor picks the color of a freshly routed net n that minimizes the
// overlay cost against its already-colored neighbors, unless locks pins n
// (the cut-conflict check's locks). colors and locks are indexed by net,
// Unassigned meaning uncolored or unlocked. Uncolored neighbors contribute
// their cheapest option. Ties prefer Second: an uncommitted pattern keeps
// more flexibility for later assistant-core sharing.
func PseudoColor(g *ocg.Graph, n int, colors, locks []decomp.Color) decomp.Color {
	if c := locks[n]; c != decomp.Unassigned {
		return c
	}
	costOf := func(c decomp.Color) int {
		total := 0
		for _, e := range g.Edges(n) {
			if oc := colors[e.Other(n)]; oc != decomp.Unassigned {
				total = addSat(total, assignCost2(e, n, c, oc))
				continue
			}
			// Neighbor not colored yet: assume its best response.
			best := inf
			for _, occ := range [2]decomp.Color{decomp.Core, decomp.Second} {
				if v := assignCost2(e, n, c, occ); v < best {
					best = v
				}
			}
			total = addSat(total, best)
		}
		return total
	}
	cc := costOf(decomp.Core)
	cs := costOf(decomp.Second)
	if cc < cs {
		return decomp.Core
	}
	return decomp.Second
}

// assignCost2 orients the edge so that net n plays the first role.
func assignCost2(e *ocg.Edge, n int, cn, co decomp.Color) int {
	if e.A == n {
		return assignCostRaw(e.Prof, cn, co)
	}
	return assignCostRaw(e.Prof, co, cn)
}

func assignCostRaw(p scenario.Profile, ca, cb decomp.Color) int {
	a := scenario.Of(ca, cb)
	if p.Forbidden[a] {
		return inf
	}
	return p.Cost[a]
}

// Result reports one flipping run; its colors are the Tree's (Tree.Colors).
type Result struct {
	// Cost is the DP tree cost of the chosen assignment (inf if the tree
	// admits no feasible assignment).
	Cost int
	// Feasible is false when some hard constraint cannot be satisfied.
	Feasible bool
}

// Tree is the flipping structure of one OCG component: its maximum
// spanning forest, each tree rooted at its first net in the given order,
// with every vertex's parent-edge costs oriented and a visiting order that
// puts parents before children. Build it for a component and Solve it for
// each lock set; the graph must not change in between. The zero Tree is
// ready to Build, and a Tree rebuilt for the next component reuses its
// storage.
type Tree struct {
	nets   []int
	order  []int32
	parent []int32 // -1 at a root
	// up[v][pc][cc] is the cost of v's parent edge with the parent colored
	// pc and v colored cc (0 Core, 1 Second).
	up [][2][2]int
	// Solve's scratch: subtree costs and child colors per parent color.
	cost [][2]int
	pick [][2]decomp.Color
	// colors[v] is the color Solve chose for nets[v].
	colors []decomp.Color
	// Build's scratch: each net's position in nets (pos[net]; the entries
	// of other ids are stale), the edges by spanning-tree weight, the
	// Kruskal union-find, the spanning tree, and its CSR adjacency.
	pos      []int32
	byWeight []weighted
	dsu      []int32
	tree     []*ocg.Edge
	start    []int32
	fill     []int32
	adjE     []*ocg.Edge
	adjV     []int32
}

// colorAt is the color at each index of Tree's per-color arrays;
// colorIndex is its inverse.
var colorAt = [2]decomp.Color{decomp.Core, decomp.Second}

// Build rebuilds t in place as the flipping structure of an OCG component
// from its nets and the edges among them, sorted by (A, B), as
// ocg.Graph.Component returns them. t keeps nets until the next Build.
func (t *Tree) Build(nets []int, edges []*ocg.Edge) {
	n := len(nets)
	t.nets = nets
	t.order = t.order[:0]
	t.parent = resize(t.parent, n)
	t.up = resize(t.up, n)
	t.cost = resize(t.cost, n)
	t.pick = resize(t.pick, n)
	t.colors = resize(t.colors, n)
	t.index()
	tree := t.spanningTree(edges)
	pos := t.pos

	// Tree adjacency in CSR form: vertex v's edges are
	// adjE[start[v]:start[v+1]], leading to adjV[start[v]:start[v+1]].
	start := resize(t.start, n+1)
	clear(start)
	for _, e := range tree {
		start[pos[e.A]+1]++
		start[pos[e.B]+1]++
	}
	for v := range n {
		start[v+1] += start[v]
	}
	adjE, adjV := resize(t.adjE, 2*len(tree)), resize(t.adjV, 2*len(tree))
	fill := append(t.fill[:0], start[:n]...)
	for _, e := range tree {
		a, b := pos[e.A], pos[e.B]
		adjE[fill[a]], adjV[fill[a]] = e, b
		adjE[fill[b]], adjV[fill[b]] = e, a
		fill[a]++
		fill[b]++
	}
	t.start, t.adjE, t.adjV, t.fill = start, adjE, adjV, fill

	for v := range t.parent {
		t.parent[v] = -2 // unvisited
	}
	for root := range int32(n) {
		if t.parent[root] != -2 {
			continue
		}
		t.parent[root] = -1
		t.order = append(t.order, root)
		for i := len(t.order) - 1; i < len(t.order); i++ {
			v := t.order[i]
			for k := start[v]; k < start[v+1]; k++ {
				e, o := adjE[k], adjV[k]
				if t.parent[o] != -2 {
					continue
				}
				t.parent[o] = v
				for pc := range 2 {
					for cc := range 2 {
						t.up[o][pc][cc] = edgeCostOriented(e, nets[v], colorAt[pc], colorAt[cc])
					}
				}
				t.order = append(t.order, o)
			}
		}
	}
}

// resize returns s with length n, reusing its storage when it is large
// enough; the elements' values are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Solve runs the dynamic program of equation (4) on the tree under one
// lock set, indexed by net: a net locked to a color (not Unassigned) takes
// infinite cost for the opposite one. It reports the DP run, an infeasible
// component and the component size to rec; a nil rec is the
// un-instrumented fast path.
func (t *Tree) Solve(locks []decomp.Color, rec *obs.Recorder) Result {
	res := Result{Feasible: true}
	for v, n := range t.nets {
		t.cost[v] = [2]int{}
		if lc := locks[n]; lc != decomp.Unassigned {
			t.cost[v][colorIndex(lc.Flip())] = inf
		}
	}
	// Leaves to roots: each vertex adds its cheaper option under either
	// parent color to its parent.
	for k := len(t.order) - 1; k >= 0; k-- {
		v := t.order[k]
		p := t.parent[v]
		if p < 0 {
			continue
		}
		for pc := range 2 {
			vc := addSat(t.cost[v][0], t.up[v][pc][0])
			vs := addSat(t.cost[v][1], t.up[v][pc][1])
			if vc <= vs {
				t.pick[v][pc] = decomp.Core
				t.cost[p][pc] = addSat(t.cost[p][pc], vc)
			} else {
				t.pick[v][pc] = decomp.Second
				t.cost[p][pc] = addSat(t.cost[p][pc], vs)
			}
		}
	}
	// Roots to leaves: choose each root's color, then backtrace.
	total := 0
	for _, v := range t.order {
		var c decomp.Color
		if p := t.parent[v]; p >= 0 {
			c = t.pick[v][colorIndex(t.colors[p])]
		} else {
			c = decomp.Second
			best := t.cost[v][1]
			if t.cost[v][0] < best {
				c, best = decomp.Core, t.cost[v][0]
			}
			if best >= inf {
				res.Feasible = false
			}
			total = addSat(total, best)
		}
		t.colors[v] = c
	}
	res.Cost = total
	if rec != nil {
		rec.Inc(obs.CtrFlipRuns)
		rec.Max(obs.GaugeFlipComponentPeak, int64(len(t.nets)))
		if !res.Feasible {
			rec.Inc(obs.CtrFlipInfeasible)
		}
	}
	return res
}

// Colors returns the colors of the last Solve, parallel to the nets of
// the last Build; they are the Tree's until the next Build or Solve.
func (t *Tree) Colors() []decomp.Color { return t.colors }

// Apply copies the colors of the last Solve into colors, indexed by net.
func (t *Tree) Apply(colors []decomp.Color) {
	for v, n := range t.nets {
		colors[n] = t.colors[v]
	}
}

// colorIndex maps Core to 0 and Second to 1.
func colorIndex(c decomp.Color) int {
	if c == decomp.Core {
		return 0
	}
	return 1
}

func edgeCostOriented(e *ocg.Edge, parentNet int, pc, cc decomp.Color) int {
	if e.A == parentNet {
		return assignCostRaw(e.Prof, pc, cc)
	}
	return assignCostRaw(e.Prof, cc, pc)
}

func addSat(a, b int) int {
	s := a + b
	if s > inf {
		return inf
	}
	return s
}

// spanningTree selects a maximum-weight spanning forest of t.nets, as
// indexed by t.index: hard edges carry a weight larger than any nonhard
// total so they are always kept (their constraints must bind), nonhard
// edges weigh their maximum potential side-overlay length. Kruskal takes
// the edges heaviest first, ties in the given order. The forest is t.tree.
func (t *Tree) spanningTree(edges []*ocg.Edge) []*ocg.Edge {
	const hardBoost = 1 << 30
	byWeight := resize(t.byWeight, len(edges))
	for i, e := range edges {
		w := max(0, slices.Max(e.Prof.Cost[:]))
		if ocg.Kind(e.Prof) != ocg.Soft {
			w += hardBoost
		}
		byWeight[i] = weighted{w, int32(i)}
	}
	slices.SortFunc(byWeight, func(x, y weighted) int {
		if x.w != y.w {
			return cmp.Compare(y.w, x.w)
		}
		return cmp.Compare(x.i, y.i)
	})
	pos := t.pos
	parent := resize(t.dsu, len(t.nets))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	tree := t.tree[:0]
	for _, bw := range byWeight {
		e := edges[bw.i]
		ra, rb := find(pos[e.A]), find(pos[e.B])
		if ra == rb {
			continue
		}
		parent[ra] = rb
		tree = append(tree, e)
	}
	t.byWeight, t.dsu, t.tree = byWeight, parent, tree
	return tree
}

// index sets t.pos[net] to each net's position in t.nets; the entries of
// other ids (nets are non-negative) are left as they were.
func (t *Tree) index() {
	top := 0
	for _, n := range t.nets {
		top = max(top, n)
	}
	if len(t.pos) <= top {
		t.pos = make([]int32, top+1)
	}
	for i, n := range t.nets {
		t.pos[n] = int32(i)
	}
}

// weighted is an edge's spanning-tree weight and its index in the edge
// list.
type weighted struct {
	w int
	i int32
}
