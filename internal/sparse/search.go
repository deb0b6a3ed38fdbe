package sparse

import (
	"sort"

	"sadproute/internal/astar"
	"sadproute/internal/grid"
	"sadproute/internal/interval"
)

// Config parameterizes a corridor search. Costs are in the same engine
// units as astar.Config (astar.Scale applies to WL and Via); DirPenalty
// and PinVia are flat engine-unit extras matching the router's uniform
// step-cost terms.
type Config struct {
	// WL, Via weigh wirelength and via count exactly as astar.Config.
	WL, Via int
	// DirPenalty is the per-step cost of a planar move against the layer's
	// preferred direction (even layers horizontal, odd vertical).
	DirPenalty int
	// PinVia is the extra cost of a via whose either cell is a source or
	// target candidate, exactly as astar.Config.PinVia (the router pushes
	// vias off pins).
	PinVia int
	// MaxExpand bounds corridor-node expansions; 0 means no bound.
	MaxExpand int
}

// Engine holds reusable search state for one Graph; it is not safe for
// concurrent use. Per-node arrays are retained across searches, so
// steady-state searches allocate only the returned path.
type Engine struct {
	g *Graph
	// xs, ys are the interesting-coordinate snapshot of the current
	// search, sorted ascending and deduplicated.
	xs, ys []int
	// Per-node search state, stamp-versioned like astar.Engine so the
	// arrays never need clearing between searches.
	dist    []int
	stamp   []int32
	parent  []int32
	tmark   []int32
	cur     int32
	queue   spq
	pins    map[grid.Cell]bool
	targets []grid.Cell
	cfg     Config
	// Expand is the corridor-node expansion count of the last search.
	Expand int
}

// NewEngine creates an engine bound to g.
func NewEngine(g *Graph) *Engine {
	return &Engine{g: g}
}

type spqItem struct {
	idx  int32
	f, g int
}

// spq orders by f ascending, then g descending (prefer deeper nodes, as
// astar does), then node index ascending — a total order, so the pop
// sequence is deterministic for a given push sequence.
type spq []spqItem

func (q spq) Len() int { return len(q) }
func (q spq) less(i, j int) bool {
	if q[i].f != q[j].f {
		return q[i].f < q[j].f
	}
	if q[i].g != q[j].g {
		return q[i].g > q[j].g
	}
	return q[i].idx < q[j].idx
}
func (q spq) swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *spq) push(it spqItem) {
	*q = append(*q, it)
	i := len(*q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.swap(i, p)
		i = p
	}
}

func (q *spq) pop() spqItem {
	old := *q
	n := len(old) - 1
	old.swap(0, n)
	it := old[n]
	*q = old[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && old.less(r, l) {
			j = r
		}
		if !old.less(j, i) {
			break
		}
		old.swap(i, j)
		i = j
	}
	return it
}

// Search finds a minimum-cost source→target path under the corridor cost
// model and returns it snapped to unit grid cells, together with its model
// cost. Sources and targets are candidate cells (the router's pin
// candidates); occupied candidates are unreachable, exactly as in the
// dense engine. The pin set for Config.PinVia is sources ∪ targets.
//
// The outcome is the dense engine's (astar.Outcome), but never Invalid.
// The corridor graph spans the whole die and corridor passability equals
// grid passability, so NoPath is as authoritative as the dense engine's.
// Config.MaxExpand bounds the expansions; a search that exceeds it returns
// Aborted, which says nothing about the instance.
func (e *Engine) Search(sources, targets []grid.Cell, cfg Config) ([]grid.Cell, int, astar.Outcome) {
	if len(sources) == 0 || len(targets) == 0 {
		return nil, 0, astar.NoPath
	}
	e.Expand = 0
	e.cfg = cfg
	e.snapshot(sources, targets)
	nx, ny := len(e.xs), len(e.ys)
	e.ensure(nx * ny * e.g.Layers)
	e.cur++
	e.queue = e.queue[:0]

	if e.pins == nil {
		e.pins = make(map[grid.Cell]bool)
	}
	clear(e.pins)
	for _, c := range sources {
		e.pins[c] = true
	}
	for _, c := range targets {
		e.pins[c] = true
	}
	e.targets = append(e.targets[:0], targets...)

	ntargets := 0
	for _, t := range targets {
		if !e.in(t) {
			continue
		}
		if i := e.node(t); e.tmark[i] != e.cur {
			e.tmark[i] = e.cur
			ntargets++
		}
	}
	if ntargets == 0 {
		return nil, 0, astar.NoPath
	}
	for _, s := range sources {
		if !e.in(s) || !e.g.Free(s) {
			continue
		}
		e.push(e.node(s), 0, -1)
	}

	for e.queue.Len() > 0 {
		it := e.queue.pop()
		i := int(it.idx)
		if e.stamp[i] == e.cur && e.dist[i] < it.g {
			continue // stale entry
		}
		e.Expand++
		if cfg.MaxExpand > 0 && e.Expand > cfg.MaxExpand {
			return nil, 0, astar.Aborted
		}
		if e.tmark[i] == e.cur {
			return e.snap(i), it.g, astar.Found
		}
		e.relax(i, it.g)
	}
	return nil, 0, astar.NoPath
}

// snapshot collects the interesting coordinates of the query: die edges,
// free columns/rows bordering an obstacle (from the boundary refcounts),
// and every candidate coordinate ±1 (so a cost-neutral corridor slide can
// always stop next to a pin instead of on it; see the package comment).
func (e *Engine) snapshot(sources, targets []grid.Cell) {
	x1, y1 := e.g.W-1, e.g.H-1
	e.xs = append(e.xs[:0], 0, x1)
	e.ys = append(e.ys[:0], 0, y1)
	for x := 1; x < x1; x++ {
		if e.g.cntX[x] > 0 {
			e.xs = append(e.xs, x)
		}
	}
	for y := 1; y < y1; y++ {
		if e.g.cntY[y] > 0 {
			e.ys = append(e.ys, y)
		}
	}
	for _, cells := range [2][]grid.Cell{sources, targets} {
		for _, c := range cells {
			for d := -1; d <= 1; d++ {
				if x := c.X + d; x >= 0 && x <= x1 {
					e.xs = append(e.xs, x)
				}
				if y := c.Y + d; y >= 0 && y <= y1 {
					e.ys = append(e.ys, y)
				}
			}
		}
	}
	sort.Ints(e.xs)
	sort.Ints(e.ys)
	e.xs = dedup(e.xs)
	e.ys = dedup(e.ys)
}

func dedup(s []int) []int {
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// ensure sizes the per-node arrays to n, reusing capacity. A reallocation
// restarts the stamp epoch (fresh arrays are zero and cur restarts above
// zero, so no stale state can alias).
func (e *Engine) ensure(n int) {
	if cap(e.dist) < n {
		e.dist = make([]int, n)
		e.stamp = make([]int32, n)
		e.parent = make([]int32, n)
		e.tmark = make([]int32, n)
		e.cur = 0
		return
	}
	e.dist = e.dist[:n]
	e.stamp = e.stamp[:n]
	e.parent = e.parent[:n]
	e.tmark = e.tmark[:n]
}

func (e *Engine) in(c grid.Cell) bool {
	return c.X >= 0 && c.X < e.g.W && c.Y >= 0 && c.Y < e.g.H && c.L >= 0 && c.L < e.g.Layers
}

// node maps a cell whose coordinates are in the snapshot to its node id.
func (e *Engine) node(c grid.Cell) int {
	xi := sort.SearchInts(e.xs, c.X)
	yi := sort.SearchInts(e.ys, c.Y)
	return (c.L*len(e.ys)+yi)*len(e.xs) + xi
}

// coords is the inverse of node.
func (e *Engine) coords(i int) (xi, yi, l int) {
	nx, ny := len(e.xs), len(e.ys)
	return i % nx, (i / nx) % ny, i / (nx * ny)
}

// h is the admissible heuristic: Manhattan distance priced at the uniform
// floor (WL per planar step, Via per layer change; DirPenalty and PinVia
// only ever add).
func (e *Engine) h(i int) int {
	xi, yi, l := e.coords(i)
	x, y := e.xs[xi], e.ys[yi]
	best := -1
	for _, t := range e.targets {
		d := (absi(x-t.X)+absi(y-t.Y))*e.cfg.WL + absi(l-t.L)*e.cfg.Via
		if best < 0 || d < best {
			best = d
		}
	}
	return best * astar.Scale
}

func (e *Engine) push(i, gcost int, parent int32) {
	if e.stamp[i] == e.cur && e.dist[i] <= gcost {
		return
	}
	e.stamp[i] = e.cur
	e.dist[i] = gcost
	e.parent[i] = parent
	e.queue.push(spqItem{idx: int32(i), f: gcost + e.h(i), g: gcost})
}

// relax pushes every corridor neighbor of node i: planar moves to the
// adjacent interesting coordinate when the whole corridor is free, vias
// when both cells are free.
func (e *Engine) relax(i, gcost int) {
	xi, yi, l := e.coords(i)
	nx, ny := len(e.xs), len(e.ys)
	x, y := e.xs[xi], e.ys[yi]
	wl := e.cfg.WL * astar.Scale
	stepX, stepY := wl, wl
	if l%2 == 1 {
		stepX += e.cfg.DirPenalty // odd layers prefer vertical
	} else {
		stepY += e.cfg.DirPenalty // even layers prefer horizontal
	}
	row, col := &e.g.rowFree[l][y], &e.g.colFree[l][x]
	if xi+1 < nx {
		if x2 := e.xs[xi+1]; row.Covers(interval.Iv{Lo: x, Hi: x2 + 1}) {
			e.push(i+1, gcost+(x2-x)*stepX, int32(i))
		}
	}
	if xi > 0 {
		if x2 := e.xs[xi-1]; row.Covers(interval.Iv{Lo: x2, Hi: x + 1}) {
			e.push(i-1, gcost+(x-x2)*stepX, int32(i))
		}
	}
	if yi+1 < ny {
		if y2 := e.ys[yi+1]; col.Covers(interval.Iv{Lo: y, Hi: y2 + 1}) {
			e.push(i+nx, gcost+(y2-y)*stepY, int32(i))
		}
	}
	if yi > 0 {
		if y2 := e.ys[yi-1]; col.Covers(interval.Iv{Lo: y2, Hi: y + 1}) {
			e.push(i-nx, gcost+(y-y2)*stepY, int32(i))
		}
	}
	for dl := -1; dl <= 1; dl += 2 {
		l2 := l + dl
		if l2 < 0 || l2 >= e.g.Layers || !e.g.rowFree[l2][y].Contains(x) {
			continue
		}
		step := e.cfg.Via * astar.Scale
		if e.pins[grid.Cell{X: x, Y: y, L: l}] || e.pins[grid.Cell{X: x, Y: y, L: l2}] {
			step += e.cfg.PinVia
		}
		e.push(i+dl*nx*ny, gcost+step, int32(i))
	}
}

// snap reconstructs the corridor-node path ending at node i and expands
// every corridor edge into unit cell steps, source→target inclusive — the
// same shape the dense engine returns, so commit/DRC/trace layers are
// agnostic to which engine routed the net.
func (e *Engine) snap(i int) []grid.Cell {
	var rev []int32
	for j := int32(i); j >= 0; j = e.parent[j] {
		rev = append(rev, j)
	}
	cell := func(n int32) grid.Cell {
		xi, yi, l := e.coords(int(n))
		return grid.Cell{X: e.xs[xi], Y: e.ys[yi], L: l}
	}
	path := []grid.Cell{cell(rev[len(rev)-1])}
	for k := len(rev) - 2; k >= 0; k-- {
		from, to := cell(rev[k+1]), cell(rev[k])
		dx, dy, dl := sgn(to.X-from.X), sgn(to.Y-from.Y), sgn(to.L-from.L)
		for c := from; c != to; {
			c = grid.Cell{X: c.X + dx, Y: c.Y + dy, L: c.L + dl}
			path = append(path, c)
		}
	}
	return path
}

func sgn(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

func absi(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
