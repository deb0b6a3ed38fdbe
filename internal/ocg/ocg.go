// Package ocg implements the paper's overlay constraint graph (Section
// III-B): one graph per routing layer, a vertex per routed net, and an
// aggregated scenario-profile edge per net pair. Hard color relations
// (same-color / different-color constraints from types 1-a, 1-b, 2-a and
// conflict-forbidden assignments) feed an incremental parity union-find —
// the constant-time odd-cycle detector the paper adapts from LELE
// decomposition — while nonhard relations carry the side-overlay cost
// matrices consumed by pseudo-coloring and the color-flipping DP.
//
// The paper models same-color constraints with dummy vertices and reduces
// even hard cycles into super vertices; both devices are subsumed here by
// carrying signed parities directly in the union-find and full cost
// matrices on the edges, which is expressively equivalent and keeps
// AddScenario amortized near-constant.
package ocg

import (
	"cmp"
	"slices"

	"sadproute/internal/scenario"
)

// Edge aggregates every potential overlay scenario detected between one
// ordered net pair (A < B): costs add, forbidden/conflict flags accumulate.
type Edge struct {
	A, B  int
	Prof  scenario.Profile
	Count int // number of aggregated scenarios
}

// Other returns the edge endpoint that is not n.
func (e *Edge) Other(n int) int {
	if e.A == n {
		return e.B
	}
	return e.A
}

// ProfileFor returns the edge profile oriented so that n plays role A.
func (e *Edge) ProfileFor(n int) scenario.Profile {
	if e.A == n {
		return e.Prof
	}
	return swapProfile(e.Prof)
}

func swapProfile(p scenario.Profile) scenario.Profile {
	q := p
	for a := scenario.CC; a <= scenario.SS; a++ {
		q.Cost[a.Swap()] = p.Cost[a]
		q.Forbidden[a.Swap()] = p.Forbidden[a]
		q.Conflict[a.Swap()] = p.Conflict[a]
	}
	return q
}

// HardKind classifies an aggregated edge for the parity structure.
type HardKind uint8

const (
	Soft HardKind = iota
	HardSame
	HardDiff
	Contradiction // both same and diff forbidden: no feasible assignment
)

// Kind returns the parity classification of the aggregated profile.
func Kind(p scenario.Profile) HardKind {
	sameBad := p.Forbidden[scenario.CC] && p.Forbidden[scenario.SS]
	diffBad := p.Forbidden[scenario.CS] && p.Forbidden[scenario.SC]
	switch {
	case sameBad && diffBad:
		return Contradiction
	case sameBad:
		return HardDiff
	case diffBad:
		return HardSame
	default:
		return Soft
	}
}

// Graph is one layer's overlay constraint graph. Nets are non-negative
// ids (the netlist's 0..N-1); per-net state lives in slices indexed by net
// and grown on demand.
type Graph struct {
	edges map[[2]int]*Edge
	adj   [][]*Edge // per net: its incident edges

	pf parityForest
	// OddCycles counts hard-constraint odd cycles currently present (kept
	// nonzero until the offending edges are removed by rip-up).
	OddCycles int

	// mark is Component's visited set: net n is in the current set when
	// mark[n] == stamp.
	mark  []uint32
	stamp uint32
	// scratch holds RemoveNet's forest members and their hard edges.
	members []int32
	hard    []*Edge
}

// New returns an empty overlay constraint graph.
func New() *Graph {
	return &Graph{edges: make(map[[2]int]*Edge)}
}

// grow makes room for net n in every per-net slice.
func (g *Graph) grow(n int) {
	for len(g.adj) <= n {
		g.adj = append(g.adj, nil)
		g.mark = append(g.mark, 0)
	}
	g.pf.grow(n)
}

// AddScenario merges one scenario profile (oriented a→b) into the graph.
// It reports whether the addition created a hard-constraint odd cycle or an
// infeasible (contradictory) edge — either condition obliges the router to
// rip up the newly routed net.
func (g *Graph) AddScenario(a, b int, p scenario.Profile) (oddCycle, infeasible bool) {
	if a == b {
		return false, false
	}
	if a > b {
		a, b = b, a
		p = swapProfile(p)
	}
	g.grow(b)
	key := [2]int{a, b}
	e := g.edges[key]
	prevKind := Soft
	if e == nil {
		e = &Edge{A: a, B: b, Prof: p, Count: 1}
		g.edges[key] = e
		g.adj[a] = append(g.adj[a], e)
		g.adj[b] = append(g.adj[b], e)
	} else {
		prevKind = Kind(e.Prof)
		for i := scenario.CC; i <= scenario.SS; i++ {
			e.Prof.Cost[i] += p.Cost[i]
			e.Prof.Forbidden[i] = e.Prof.Forbidden[i] || p.Forbidden[i]
			e.Prof.Conflict[i] = e.Prof.Conflict[i] || p.Conflict[i]
		}
		if e.Prof.Type != p.Type {
			e.Prof.Type = e.Prof.Type + "+" + p.Type
		}
		e.Count++
	}
	k := Kind(e.Prof)
	if k == Contradiction {
		if prevKind == HardSame || prevKind == HardDiff {
			// The forest keeps the union this edge made while it was
			// hard; a rebuild would leave the edge out.
			g.pf.taint(a)
		}
		return false, true
	}
	if k == prevKind || k == Soft {
		return false, false
	}
	if !g.pf.union(a, b, parityOf(k)) {
		g.OddCycles++
		return true, false
	}
	return false, false
}

func parityOf(k HardKind) uint8 {
	if k == HardDiff {
		return 1
	}
	return 0
}

// isHard reports whether an edge of kind k is in the parity forest after a
// rebuild.
func isHard(k HardKind) bool { return k == HardSame || k == HardDiff }

// RemoveNet deletes every edge incident to net n (rip-up) and rebuilds the
// parity forest tree that held n. Every other tree is left as it is: a tree
// whose unions all agree and that holds no union of a since-contradictory
// edge answers every later union as a rebuild of its hard edges in any
// order would. When some other tree is tainted (it holds a refused union or
// a contradictory edge's union), the whole forest is rebuilt instead, as a
// sorted rebuild may refuse different edges there.
func (g *Graph) RemoveNet(n int) {
	if n >= len(g.adj) || len(g.adj[n]) == 0 {
		return
	}
	es := g.adj[n]
	g.adj[n] = nil
	for _, e := range es {
		o := e.Other(n)
		delete(g.edges, [2]int{e.A, e.B})
		lst := g.adj[o]
		for i, x := range lst {
			if x == e {
				lst[i] = lst[len(lst)-1]
				g.adj[o] = lst[:len(lst)-1]
				break
			}
		}
	}
	r := g.pf.root(n)
	if g.pf.taints > int(g.pf.tainted[r]) {
		g.rebuildParity()
		return
	}
	// No other tree is tainted, so every refused union, and with it every
	// odd cycle, lies in n's tree: rebuilding it recounts them all.
	g.members = g.pf.reset(r, g.members[:0])
	hard := g.hard[:0]
	for _, m := range g.members {
		for _, e := range g.adj[m] {
			if int(m) == e.A && isHard(Kind(e.Prof)) {
				hard = append(hard, e)
			}
		}
	}
	slices.SortFunc(hard, byEnds)
	g.hard = hard
	g.OddCycles = g.unite(hard)
}

// rebuildParity reconstructs the parity forest from the surviving hard
// edges and recounts odd cycles.
func (g *Graph) rebuildParity() {
	g.pf.resetAll()
	hard := g.hard[:0]
	for _, e := range g.edges {
		if isHard(Kind(e.Prof)) {
			hard = append(hard, e)
		}
	}
	slices.SortFunc(hard, byEnds)
	g.hard = hard
	g.OddCycles = g.unite(hard)
}

// byEnds orders edges by (A, B), the order that makes a rebuild
// deterministic.
func byEnds(x, y *Edge) int {
	if x.A != y.A {
		return cmp.Compare(x.A, y.A)
	}
	return cmp.Compare(x.B, y.B)
}

// unite unions sorted hard edges into the forest and returns the number it
// refused (odd cycles).
func (g *Graph) unite(hard []*Edge) int {
	odd := 0
	for _, e := range hard {
		if !g.pf.union(e.A, e.B, parityOf(Kind(e.Prof))) {
			odd++
		}
	}
	return odd
}

// EdgeBetween returns the aggregated edge between two nets, or nil.
func (g *Graph) EdgeBetween(a, b int) *Edge {
	if a > b {
		a, b = b, a
	}
	return g.edges[[2]int{a, b}]
}

// Edges returns the edges incident to net n (do not modify).
func (g *Graph) Edges(n int) []*Edge {
	if n >= len(g.adj) {
		return nil
	}
	return g.adj[n]
}

// EdgeCount returns the number of aggregated edges in the graph.
func (g *Graph) EdgeCount() int { return len(g.edges) }

// newMark starts an empty visited set covering nets 0..n.
func (g *Graph) newMark(n int) {
	g.grow(n)
	g.stamp++
	if g.stamp == 0 {
		clear(g.mark)
		g.stamp = 1
	}
}

// Component appends to nets the nets connected to n (including n) through
// any edges, in sorted order, and to edges the edges among them, each
// once, sorted by (A, B), from one walk. It returns the extended slices;
// callers pass buffers they own, emptied.
func (g *Graph) Component(n int, nets []int, edges []*Edge) ([]int, []*Edge) {
	g.newMark(n)
	g.mark[n] = g.stamp
	n0, e0 := len(nets), len(edges)
	nets = append(nets, n)
	for i := n0; i < len(nets); i++ {
		v := nets[i]
		for _, e := range g.adj[v] {
			if e.A == v { // every edge once, from its A side
				edges = append(edges, e)
			}
			if o := e.Other(v); g.mark[o] != g.stamp {
				g.mark[o] = g.stamp
				nets = append(nets, o)
			}
		}
	}
	slices.Sort(nets[n0:])
	slices.SortFunc(edges[e0:], byEnds)
	return nets, edges
}

// parityForest is a union-find with edge parities: parity 0 links vertices
// constrained to the same color, parity 1 to different colors. union
// reports false when the new relation closes an odd (inconsistent) cycle.
// Every tree keeps a circular list of its members (next), so RemoveNet can
// rebuild one tree, and a taint count at its root: the unions it refused
// plus the unions of edges that have since turned contradictory.
type parityForest struct {
	parent  []int32
	par     []uint8 // parity of a vertex relative to its parent
	next    []int32
	tainted []int32 // at a root: its tree's taint
	taints  int     // the sum of tainted over all roots
}

// grow adds singleton trees up to vertex n.
func (f *parityForest) grow(n int) {
	for i := int32(len(f.parent)); int(i) <= n; i++ {
		f.parent = append(f.parent, i)
		f.par = append(f.par, 0)
		f.next = append(f.next, i)
		f.tainted = append(f.tainted, 0)
	}
}

// find returns x's root and x's parity relative to it, compressing the
// path on the way.
func (f *parityForest) find(x int32) (root int32, parity uint8) {
	root = x
	for f.parent[root] != root {
		parity ^= f.par[root]
		root = f.parent[root]
	}
	for p := parity; f.parent[x] != root; {
		up, px := f.parent[x], f.par[x]
		f.parent[x], f.par[x] = root, p
		p ^= px
		x = up
	}
	return root, parity
}

// root returns the root of vertex n's tree.
func (f *parityForest) root(n int) int32 {
	r, _ := f.find(int32(n))
	return r
}

func (f *parityForest) union(a, b int, parity uint8) bool {
	ra, pa := f.find(int32(a))
	rb, pb := f.find(int32(b))
	if ra == rb {
		if pa^pb == parity {
			return true
		}
		f.tainted[ra]++
		f.taints++
		return false
	}
	f.parent[ra] = rb
	f.par[ra] = pa ^ pb ^ parity
	f.next[ra], f.next[rb] = f.next[rb], f.next[ra]
	f.tainted[rb] += f.tainted[ra]
	f.tainted[ra] = 0
	return true
}

// taint marks the tree of vertex n as holding a union that a rebuild would
// not make.
func (f *parityForest) taint(n int) {
	f.tainted[f.root(n)]++
	f.taints++
}

// reset turns every member of root r's tree into a singleton and appends
// the members to buf.
func (f *parityForest) reset(r int32, buf []int32) []int32 {
	f.taints -= int(f.tainted[r])
	for v := r; ; {
		buf = append(buf, v)
		nx := f.next[v]
		f.parent[v], f.par[v], f.next[v], f.tainted[v] = v, 0, v, 0
		if nx == r {
			return buf
		}
		v = nx
	}
}

// resetAll turns every vertex into a singleton.
func (f *parityForest) resetAll() {
	for i := range f.parent {
		v := int32(i)
		f.parent[i], f.par[i], f.next[i], f.tainted[i] = v, 0, v, 0
	}
	f.taints = 0
}
