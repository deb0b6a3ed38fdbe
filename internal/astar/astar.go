// Package astar implements the grid A*-search engine underlying the
// paper's overlay-aware detailed router (Section III-E): multi-source /
// multi-target search over a 3-D routing grid under the inline cost model
// of eq. (5), an admissible Manhattan heuristic, and path backtrace.
//
// Costs are integers in half-wirelength units so that the paper's
// gamma = 1.5 type-2-b weight stays exact.
package astar

import (
	"sync"

	"sadproute/internal/grid"
	"sadproute/internal/obs"
)

// Config parameterizes a search: the cost model of eq. (5) as data, priced
// inline by the engine.
//
// Every cost must be non-negative — the weights here and every Pen entry
// — and every path cost g and estimate f = g + h a search reaches must
// stay at or below MaxCost: the open list packs f and g into one 64-bit
// key. Search refuses a Config with a negative weight, and gives up on
// reaching a cost outside [0, MaxCost]; both report no path rather than
// search on a wrapped key.
type Config struct {
	// WL, Via are the alpha and beta weights of cost equation (5), in
	// engine cost units (use Scale to convert).
	WL, Via int
	// Pen is the rip-up penalty plane: the extra cost of entering each
	// cell, in grid index order (grid.Grid.Index). Nil means no penalties.
	Pen []int32
	// PinVia is the extra cost of a via step whose either cell is one of
	// the search's sources or targets: a via directly at a pin leaves a
	// bare one-cell stub, the most conflict-prone SADP geometry.
	PinVia int
	// Gamma2 is the type-2-b surcharge of a planar step whose forward
	// continuation cell is owned by another net: the path would end
	// tip-to-side against that net or corner alongside it.
	Gamma2 int
	// DirPenalty is the extra cost of a planar step against the layer's
	// preferred direction (even layers horizontal, odd vertical).
	DirPenalty int
	// MaxExpand bounds node expansions; 0 means no bound.
	MaxExpand int
	// SoftOccupied, when positive, makes cells owned by other nets passable
	// at this extra cost per cell instead of impassable — used to discover
	// which nets block an otherwise unroutable connection. Blockages stay
	// impassable.
	SoftOccupied int
}

// Scale is the engine cost multiplier: one grid step of wirelength costs
// WL*Scale implicitly through Config, so fractional weights like gamma=1.5
// remain integral.
const Scale = 2

// MaxCost is the largest path cost g, and the largest estimate f = g + h,
// a search may reach (see Config).
const MaxCost = 1<<31 - 1

// Engine holds reusable search state for one grid; it is not safe for
// concurrent use. Engines are cheap to rebind (Bind) and poolable
// (Acquire/Release), so a worker routing many instances back to back reuses
// one engine's allocations instead of paying a fresh O(cells) allocation
// per instance.
type Engine struct {
	g     *grid.Grid
	nodes []node // per-cell search records, grid index order
	cur   uint32 // id of the current search; records of older ids are stale
	// delta holds the index offset of each move in moves order.
	delta [6]int
	queue pq
	// Per-search statistics, reset by Search. The inner loop maintains them
	// as plain field increments (no branches) so the cost is identical
	// whether or not a Recorder is attached.
	Expand   int // node expansions of the last search
	Pushes   int // heap pushes of the last search
	Pops     int // heap pops of the last search
	HeapPeak int // open-list high-water mark of the last search
	// Rec, when non-nil, receives the per-search statistics (counters plus
	// the heap-peak gauge) in one flush at the end of every search.
	Rec *obs.Recorder
	// cfg and targets are the current search's parameters, held as fields so
	// the hot heuristic/push paths are methods instead of closures. targets
	// is a reused copy of the caller's slice.
	cfg     Config
	targets []grid.Cell
	// overflow is set when the current search reached a cost outside
	// [0, MaxCost]; the search stops at the next pop.
	overflow bool
}

// node is one cell's search record: the four per-cell fields a relaxation
// touches sit in one 16-byte record instead of four parallel arrays.
type node struct {
	dist   int32  // best g pushed this search; valid when stamp == cur
	stamp  uint32 // search id that last wrote dist and parent
	parent int32  // predecessor index on the best path; -1 at a source
	// mark is cur<<1 when the cell is a source or target of search cur,
	// with the low bit set when it is a target.
	mark uint32
}

// moves lists the six unit moves in expansion order. The order is part of
// the tie-breaking contract: it fixes the push order of equal-key nodes.
var moves = [6]grid.Cell{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {L: 1}, {L: -1}}

// New creates an engine bound to g.
func New(g *grid.Grid) *Engine {
	e := &Engine{}
	e.Bind(g)
	return e
}

// Bind points the engine at g, reusing the per-cell records when they are
// large enough and reallocating only when g exceeds every grid this engine
// has seen. Search state from the previous grid is discarded.
func (e *Engine) Bind(g *grid.Grid) {
	n := g.W * g.H * g.Layers
	e.g = g
	e.cur = 0
	e.queue = e.queue[:0]
	plane := g.W * g.H
	e.delta = [6]int{1, -1, g.W, -g.W, plane, -plane}
	if cap(e.nodes) < n {
		e.nodes = make([]node, n)
		return
	}
	// Stamps and marks compare against cur, which restarts at 0: clear them
	// so stale records from the previous binding cannot alias new search ids.
	e.nodes = e.nodes[:n]
	clear(e.nodes)
}

// enginePool backs Acquire/Release. Pooled engines keep their per-cell
// records, so a worker that routes many same-order-of-magnitude instances
// allocates them once instead of once per instance.
var enginePool = sync.Pool{New: func() any { return &Engine{} }}

// Acquire returns a pooled engine bound to g. Callers that route many
// netlists in sequence (the bench harness workers, the baselines) should
// pair it with Release; the engine is NOT safe for concurrent use.
func Acquire(g *grid.Grid) *Engine {
	e := enginePool.Get().(*Engine)
	e.Bind(g)
	return e
}

// Release detaches the engine from its grid and recorder and returns it to
// the pool. The caller must not use the engine afterwards.
func (e *Engine) Release() {
	e.g = nil
	e.Rec = nil
	// Drop references the pool must not retain (the penalty plane belongs
	// to the router); the queue and per-cell records keep their capacity.
	e.cfg = Config{}
	e.targets = e.targets[:0]
	enginePool.Put(e)
}

func (e *Engine) cell(i int) grid.Cell {
	w, h := e.g.W, e.g.H
	return grid.Cell{X: i % w, Y: (i / w) % h, L: i / (w * h)}
}

// item is one open-list entry. key packs the order — f ascending, then g
// descending, so f-ties prefer deeper nodes and straighter paths — as
// f<<32 | ^uint32(g): one unsigned compare orders two items exactly as the
// (f, -g) pair compare does whenever 0 <= g <= f <= MaxCost.
type item struct {
	key uint64
	idx int32
}

// pack builds an open-list key from f and g (0 <= g <= f <= MaxCost).
func pack(f, g int) uint64 { return uint64(f)<<32 | uint64(^uint32(g)) }

type pq []item

// push and pop are the container/heap algorithm specialized to item: the
// same comparisons in the same order, so the same array after every
// operation (identical tie-breaking and traces). They move a hole instead
// of swapping — the moving item sits at the hole in container/heap, so
// each compare sees the same pair — and write the item once at the end.
func (q *pq) push(it item) {
	*q = append(*q, it)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if it.key >= h[p].key {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}

func (q *pq) pop() item {
	h := *q
	n := len(h) - 1
	top, last := h[0], h[n]
	*q = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h[r].key < h[l].key {
			j = r
		}
		if h[j].key >= last.key {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = last
	return top
}

// Search finds a minimum-cost path from any source to any target under cfg.
// Occupied and blocked cells are impassable except cells owned by net id.
// The returned path runs source→target inclusive; ok is false when no path
// exists, and when the search gives up: MaxExpand reached, or a cost
// outside the range Config documents.
func (e *Engine) Search(id int32, sources, targets []grid.Cell, cfg Config) ([]grid.Cell, bool) {
	if len(sources) == 0 || len(targets) == 0 {
		return nil, false
	}
	e.queue = e.queue[:0]
	e.Expand, e.Pushes, e.Pops, e.HeapPeak = 0, 0, 0, 0
	defer e.flushObs()
	if !cfg.nonNegative() || e.begin(sources, targets, cfg) == 0 {
		return nil, false
	}
	e.targets = append(e.targets[:0], targets...)

	for _, s := range sources {
		if !e.g.In(s) || !e.g.FreeOrNet(s, id) {
			continue
		}
		e.pushNode(e.g.Index(s), s, 0, -1)
	}

	target := e.cur<<1 | 1
	var costs [6]int
	for len(e.queue) > 0 && !e.overflow {
		it := e.queue.pop()
		e.Pops++
		i := int(it.idx)
		g := int(^uint32(it.key))
		// Every queued item was pushed by this search, so the record is
		// current: a smaller dist means a cheaper push superseded this one.
		if int(e.nodes[i].dist) < g {
			continue
		}
		e.Expand++
		if cfg.MaxExpand > 0 && e.Expand > cfg.MaxExpand {
			return nil, false
		}
		if e.nodes[i].mark == target {
			return e.trace(i), true
		}
		c := e.cell(i)
		e.stepCosts(id, i, c, &costs)
		for d, m := range &moves {
			if costs[d] >= 0 {
				e.pushNode(i+e.delta[d], grid.Cell{X: c.X + m.X, Y: c.Y + m.Y, L: c.L + m.L}, g+costs[d], int32(i))
			}
		}
	}
	return nil, false
}

// begin starts a new search id under cfg: it marks every in-grid source and
// target as a pin and every in-grid target as a goal, and returns the
// number of distinct goals.
func (e *Engine) begin(sources, targets []grid.Cell, cfg Config) int {
	e.cur++
	e.cfg = cfg
	e.overflow = false
	pin, target := e.cur<<1, e.cur<<1|1
	for _, s := range sources {
		if e.g.In(s) {
			e.nodes[e.g.Index(s)].mark = pin
		}
	}
	ntargets := 0
	for _, t := range targets {
		if !e.g.In(t) {
			continue
		}
		if n := &e.nodes[e.g.Index(t)]; n.mark != target {
			n.mark = target
			ntargets++
		}
	}
	return ntargets
}

// nonNegative reports whether every weight of c is >= 0.
func (c *Config) nonNegative() bool {
	return c.WL >= 0 && c.Via >= 0 && c.PinVia >= 0 && c.Gamma2 >= 0 && c.DirPenalty >= 0 && c.SoftOccupied >= 0
}

// stepCosts prices the six moves out of cell c (index i) for net id under
// cost equation (5) and the current search's Config, in moves order: the
// wirelength or via weight, the soft-occupancy toll, the rip-up penalty
// of the entered cell, the pin-via push-off, the type-2-b lookahead and
// the preferred-direction penalty. A move off the grid or into a cell the
// net may not enter costs -1. Search and Price both price through here, so
// a repriced path costs exactly what a search charges for it.
func (e *Engine) stepCosts(id int32, i int, c grid.Cell, out *[6]int) {
	g, cfg := e.g, &e.cfg
	pinHere := e.nodes[i].mark>>1 == e.cur
	for d, m := range &moves {
		nc := grid.Cell{X: c.X + m.X, Y: c.Y + m.Y, L: c.L + m.L}
		if !g.In(nc) {
			out[d] = -1
			continue
		}
		ni := i + e.delta[d]
		cost := 0
		if v := g.AtIndex(ni); v != grid.Free && v != id {
			if cfg.SoftOccupied <= 0 || v < 0 {
				out[d] = -1 // foreign cell or hard blockage
				continue
			}
			cost = cfg.SoftOccupied
		}
		if cfg.Pen != nil {
			cost += int(cfg.Pen[ni])
		}
		if m.L != 0 {
			cost += cfg.Via * Scale
			if cfg.PinVia > 0 && (pinHere || e.nodes[ni].mark>>1 == e.cur) {
				cost += cfg.PinVia
			}
		} else {
			cost += cfg.WL * Scale
			if cfg.Gamma2 > 0 && g.In(grid.Cell{X: nc.X + m.X, Y: nc.Y + m.Y, L: nc.L}) {
				if v := g.AtIndex(ni + e.delta[d]); v >= 0 && v != id {
					cost += cfg.Gamma2
				}
			}
			if cfg.DirPenalty > 0 && (m.X != 0) != (c.L%2 == 0) {
				cost += cfg.DirPenalty
			}
		}
		out[d] = cost
	}
}

// Price returns the cost a search for net id from sources to targets under
// cfg charges for path, a source→target chain of unit moves. ok is false
// when a step is not a unit move inside the grid or enters a cell the net
// may not enter, and when cfg has a negative weight. Price starts a new
// search id but leaves the statistics of the last Search untouched.
func (e *Engine) Price(id int32, sources, targets, path []grid.Cell, cfg Config) (int, bool) {
	if !cfg.nonNegative() {
		return 0, false
	}
	e.begin(sources, targets, cfg)
	total := 0
	var costs [6]int
	for k := 1; k < len(path); k++ {
		from, to := path[k-1], path[k]
		d := moveIndex(grid.Cell{X: to.X - from.X, Y: to.Y - from.Y, L: to.L - from.L})
		if d < 0 || !e.g.In(from) {
			return 0, false
		}
		e.stepCosts(id, e.g.Index(from), from, &costs)
		if costs[d] < 0 {
			return 0, false
		}
		total += costs[d]
	}
	return total, true
}

// moveIndex returns m's position in moves, or -1 when m is no unit move.
func moveIndex(m grid.Cell) int {
	for d, mv := range &moves {
		if mv == m {
			return d
		}
	}
	return -1
}

// h is the Manhattan heuristic over the current search's targets, in
// engine cost units. It is admissible because every planar step costs at
// least WL*Scale and every layer change at least Via*Scale, whichever of
// the two weights is larger.
func (e *Engine) h(c grid.Cell) int {
	best := -1
	for _, t := range e.targets {
		d := (absi(c.X-t.X)+absi(c.Y-t.Y))*e.cfg.WL + absi(c.L-t.L)*e.cfg.Via
		if best < 0 || d < best {
			best = d
		}
	}
	return best * Scale
}

// pushNode relaxes node i (cell c) to gcost and pushes it on the open list.
// A cost the packed key cannot hold is not pushed; it sets overflow, which
// ends the search.
func (e *Engine) pushNode(i int, c grid.Cell, gcost int, parent int32) {
	n := &e.nodes[i]
	if n.stamp == e.cur && int(n.dist) <= gcost {
		return
	}
	f := gcost + e.h(c)
	if gcost < 0 || f > MaxCost {
		e.overflow = true
		return
	}
	n.stamp, n.dist, n.parent = e.cur, int32(gcost), parent
	e.queue.push(item{key: pack(f, gcost), idx: int32(i)})
	e.Pushes++
	if n := len(e.queue); n > e.HeapPeak {
		e.HeapPeak = n
	}
}

// flushObs reports the last search's statistics to the attached Recorder
// in one batch — the inner loop stays free of atomic operations.
func (e *Engine) flushObs() {
	if e.Rec == nil {
		return
	}
	e.Rec.Inc(obs.CtrAstarSearches)
	e.Rec.Add(obs.CtrAstarExpanded, int64(e.Expand))
	e.Rec.Add(obs.CtrAstarPushes, int64(e.Pushes))
	e.Rec.Add(obs.CtrAstarPops, int64(e.Pops))
	e.Rec.Max(obs.GaugeAstarHeapPeak, int64(e.HeapPeak))
	e.Rec.Observe(obs.HistAstarExpanded, int64(e.Expand))
}

// trace reconstructs the path ending at index i.
func (e *Engine) trace(i int) []grid.Cell {
	var rev []grid.Cell
	for j := int32(i); j >= 0; j = e.nodes[j].parent {
		rev = append(rev, e.cell(int(j)))
	}
	for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
		rev[a], rev[b] = rev[b], rev[a]
	}
	return rev
}

func absi(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
