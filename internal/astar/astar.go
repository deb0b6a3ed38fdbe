// Package astar implements the grid A*-search engine underlying the
// paper's overlay-aware detailed router (Section III-E): multi-source /
// multi-target search over a 3-D routing grid under the inline cost model
// of eq. (5), a consistent estimate (Manhattan distance plus the least
// cost of entering a target), and path backtrace.
//
// Costs are integers in half-wirelength units so that the paper's
// gamma = 1.5 type-2-b weight stays exact.
package astar

import (
	"math"

	"sadproute/internal/grid"
	"sadproute/internal/obs"
)

// Config parameterizes a search: the cost model of eq. (5) as data, priced
// inline by the engine.
//
// Every cost must be non-negative — the weights here and every Pen entry
// — and every path cost g, and g plus its Manhattan estimate, a search
// reaches must stay at or below MaxCost: the open list keeps f and g in 32
// bits each, and its buckets need an f that never falls. Search refuses a
// Config with a negative weight, and gives up on reaching a cost outside
// [0, MaxCost] or an estimate below the f it is expanding (a negative Pen
// entry can make either); all end Invalid rather than search on a broken
// order. The entry bound (Engine.entry) never makes a search Invalid: an
// estimate it would carry past MaxCost is MaxCost.
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

// Outcome is how a search ended. The corridor engine (internal/sparse)
// reports the same outcomes, so callers treat both engines alike.
type Outcome uint8

const (
	// NoPath: the frontier ran dry, or no target can be entered. It is
	// authoritative: no path exists under the search's Config.
	NoPath Outcome = iota
	// Found: the search returned a minimum-cost path.
	Found
	// Aborted: the MaxExpand budget ran out. It says nothing about
	// whether a path exists.
	Aborted
	// Invalid: a negative weight, a cost outside [0, MaxCost], or an
	// estimate below the f being expanded.
	Invalid
)

// Scale is the engine cost multiplier: one grid step of wirelength costs
// WL*Scale implicitly through Config, so fractional weights like gamma=1.5
// remain integral.
const Scale = 2

// MaxCost is the largest path cost g, and the largest estimate f = g + h,
// a search may reach (see Config).
const MaxCost = 1<<31 - 1

// Engine holds reusable search state for one grid; it is not safe for
// concurrent use. New sizes the per-cell records once; every search on the
// grid reuses them and the open list's storage, so a steady-state search
// allocates only the path it returns.
type Engine struct {
	g     *grid.Grid
	nodes []node // per-cell search records, grid index order
	cur   uint32 // id of the current search; records of other ids are stale
	// step holds the grid index step of each move, in moves order.
	step  [6]int
	queue bucketQueue
	// Per-search statistics, reset by Search. The inner loop maintains them
	// as plain field increments (no branches) so the cost is identical
	// whether or not a Recorder is attached.
	Expand   int // node expansions of the last search
	Pushes   int // open-list pushes of the last search
	Pops     int // open-list pops of the last search
	HeapPeak int // open-list high-water mark of the last search
	// Rec, when non-nil, receives the per-search statistics (counters plus
	// the heap-peak gauge) in one flush at the end of every search.
	Rec *obs.Recorder
	// cfg and targets are the current search's parameters, held as fields so
	// the expansion reads them without closures. targets is a reused copy
	// of the caller's slice.
	cfg     Config
	targets []grid.Cell
	// invalid is set when the current search reached a cost outside
	// [0, MaxCost] or an estimate below the f being expanded; the search
	// ends Invalid at the next pop.
	invalid bool
	// entry is the current search's entry bound, added to the estimate of
	// every cell but a target: the least cost the last step into a target
	// the net may enter pays on top of its wirelength or via weight (see
	// Config.entryCost), or 0 when that least cost is negative.
	entry int
}

// node is one cell's search record, 8 bytes: the best g pushed and a tag.
// The tag holds, from the top, the id of the search that last wrote the
// record (under any other id the whole record is stale), the reached, pin
// and target flags, and the move that entered the cell: the parent is
// i - step[move], and fromSource marks a source.
type node struct {
	dist int32  // best g pushed this search; valid when reached
	tag  uint32 // id<<idShift | reached | pin | target | move
}

const (
	moveMask   = 1<<3 - 1
	fromSource = moveMask // the move of a cell pushed as a source
	targetBit  = 1 << 3   // a target of the search
	pinBit     = 1 << 4   // a source or target of the search
	reachedBit = 1 << 5   // dist and the move were pushed by the search
	idShift    = 6
	// maxSearchID is the largest search id a tag holds; the search after
	// it clears every record and restarts the count at 1.
	maxSearchID = 1<<(32-idShift) - 1
)

// forbidden is expand's price of a move the net may not make. No priced
// step reaches it: the most negative is one negative int32 Pen entry.
const forbidden = math.MinInt

// moves lists the six unit moves in expansion order, which is the push
// order of a node's successors. Entries of equal f and g pop in push
// order, so this order is part of the route contract.
var moves = [6]grid.Cell{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {L: 1}, {L: -1}}

// New creates an engine for g.
func New(g *grid.Grid) *Engine {
	e := &Engine{g: g, nodes: make([]node, g.Len())}
	for d, m := range &moves {
		e.step[d] = g.Step(m)
	}
	return e
}

// Search finds a minimum-cost path from any source to any target under cfg.
// Occupied and blocked cells are impassable except cells owned by net id.
// The path runs source→target inclusive and is non-nil only when the
// outcome is Found. A search none of whose targets the net may enter (see
// Config.mayEnter) ends NoPath before its first expansion: it cannot
// reach a goal, however far its sources flood.
func (e *Engine) Search(id int32, sources, targets []grid.Cell, cfg Config) ([]grid.Cell, Outcome) {
	e.queue.reset()
	e.Expand, e.Pushes, e.Pops, e.HeapPeak = 0, 0, 0, 0
	defer e.flushObs()
	if len(sources) == 0 || len(targets) == 0 {
		return nil, NoPath
	}
	if !cfg.nonNegative() {
		return nil, Invalid
	}
	if e.begin(id, sources, targets, cfg) == 0 {
		return nil, NoPath
	}
	e.targets = append(e.targets[:0], targets...)

	for _, s := range sources {
		if !e.g.In(s) || !e.g.FreeOrNet(s, id) {
			continue
		}
		// A source enters at path cost 0 before the first expansion, so of
		// expand's relaxation only the record and the MaxCost bound can
		// refuse it.
		i := e.g.Index(s)
		n := e.record(i)
		if n.tag&reachedBit != 0 {
			continue // a repeated source
		}
		f := e.h(s)
		if f > MaxCost {
			e.invalid = true
			continue
		}
		if n.tag&targetBit == 0 {
			f = min(f+e.entry, MaxCost)
		}
		n.dist, n.tag = 0, n.tag|reachedBit|fromSource
		e.queue.push(item{sub: subKey(0, uint32(e.Pushes)), idx: int32(i), f: int32(f)})
		e.Pushes++
	}
	e.HeapPeak = e.queue.n

	for e.queue.n > 0 && !e.invalid {
		it := e.queue.pop()
		e.Pops++
		i := int(it.idx)
		g := it.g()
		// Every queued item was pushed by this search, so the record is
		// current: a smaller dist means a cheaper push superseded this one.
		if int(e.nodes[i].dist) < g {
			continue
		}
		e.Expand++
		if cfg.MaxExpand > 0 && e.Expand > cfg.MaxExpand {
			return nil, Aborted
		}
		if e.nodes[i].tag&targetBit != 0 {
			return e.trace(i), Found
		}
		e.expand(id, i, g, nil)
	}
	if e.invalid {
		return nil, Invalid
	}
	return nil, NoPath
}

// begin starts a new search id under cfg: it marks every in-grid source and
// target as a pin and every in-grid target as a goal, sets the entry bound
// over the goals net id may enter, and returns their number.
func (e *Engine) begin(id int32, sources, targets []grid.Cell, cfg Config) int {
	if e.cur == maxSearchID {
		clear(e.nodes)
		e.cur = 0
	}
	e.cur++
	e.cfg = cfg
	e.invalid = false
	for _, s := range sources {
		if e.g.In(s) {
			e.record(e.g.Index(s)).tag |= pinBit
		}
	}
	ntargets, entry := 0, math.MaxInt
	for _, t := range targets {
		if !e.g.In(t) {
			continue
		}
		i := e.g.Index(t)
		if n := e.record(i); n.tag&targetBit == 0 {
			n.tag |= pinBit | targetBit
			if v := e.g.AtIndex(i); cfg.mayEnter(v, id) {
				ntargets++
				entry = min(entry, cfg.entryCost(v, id, i))
			}
		}
	}
	e.entry = 0
	if ntargets > 0 {
		e.entry = max(entry, 0)
	}
	return ntargets
}

// record returns cell i's record for the current search, reset to no flags
// when an earlier search wrote it.
func (e *Engine) record(i int) *node {
	n := &e.nodes[i]
	if n.tag>>idShift != e.cur {
		n.tag = e.cur << idShift
	}
	return n
}

// pin reports whether cell i is a source or target of the current search.
func (e *Engine) pin(i int) bool {
	t := e.nodes[i].tag
	return t>>idShift == e.cur && t&pinBit != 0
}

// nonNegative reports whether every weight of c is >= 0.
func (c *Config) nonNegative() bool {
	return c.WL >= 0 && c.Via >= 0 && c.PinVia >= 0 && c.Gamma2 >= 0 && c.DirPenalty >= 0 && c.SoftOccupied >= 0
}

// mayEnter reports whether net id may enter a cell holding v under c: a
// free cell, its own cell, or another net's cell when SoftOccupied is
// positive — the rule expand prices moves by. Every pushed cell passes
// it, sources included (they must be free or the net's own).
func (c *Config) mayEnter(v, id int32) bool {
	return v == grid.Free || v == id || (c.SoftOccupied > 0 && v >= 0)
}

// entryCost is what expand charges net id, on top of every other term,
// for entering cell i holding v, a cell the net may enter: the
// soft-occupancy toll of another net's cell plus the cell's rip-up
// penalty. The other terms are >= 0, so every step into the cell costs at
// least its wirelength or via weight plus this.
func (c *Config) entryCost(v, id int32, i int) int {
	cost := 0
	if v != grid.Free && v != id {
		cost = c.SoftOccupied
	}
	if c.Pen != nil {
		cost += int(c.Pen[i])
	}
	return cost
}

// expand is the engine's one implementation of the eq. (5) step price.
// It prices the six moves out of cell i for net id under the current
// search's Config, in moves order: the wirelength or via weight, the
// soft-occupancy toll, the rip-up penalty of the entered cell, the
// pin-via push-off, the preferred-direction penalty and the type-2-b
// look-ahead. A move off the grid or into a cell the net may not enter is
// forbidden; any other negative price comes from a negative Pen entry.
// Search and Price both price through here, so a repriced path costs
// exactly what a search charges for it.
//
// With price nil, expand is Search's expansion of cell i at path cost g,
// and it relaxes each move in the same pass. A negative price sets
// invalid. Any other is refused when the entered cell's record already
// holds a path no dearer, which the look-ahead, as it only adds, is not
// read to decide. Otherwise the cell is pushed at its path cost gc and
// f = gc + h (a single target's distance computed inline), plus the entry
// bound unless the cell is a target, capped at MaxCost. A gc + h above
// MaxCost, or an f below the f being expanded (a negative Pen entry made
// the estimate inconsistent), is not pushed; it sets invalid, which ends
// the search. With price non-nil, expand writes each price there instead,
// forbidden for a forbidden move, and g is unused.
func (e *Engine) expand(id int32, i, g int, price *[6]int) {
	gr, cfg := e.g, &e.cfg
	if price != nil {
		*price = [6]int{forbidden, forbidden, forbidden, forbidden, forbidden, forbidden}
	}
	c := gr.CellAt(i)
	pinHere := e.pin(i)
	for d := range &moves {
		m := moves[d]
		nc := grid.Cell{X: c.X + m.X, Y: c.Y + m.Y, L: c.L + m.L}
		if !gr.In(nc) {
			continue
		}
		ni := i + e.step[d]
		sc := 0
		if v := gr.AtIndex(ni); v != grid.Free && v != id {
			if cfg.SoftOccupied <= 0 || v < 0 {
				continue // foreign cell or hard blockage
			}
			sc = cfg.SoftOccupied
		}
		if cfg.Pen != nil {
			sc += int(cfg.Pen[ni])
		}
		n := &e.nodes[ni]
		t := n.tag
		if t>>idShift != e.cur {
			t = e.cur << idShift // written by an earlier search: no flags
		}
		if m.L != 0 {
			sc += cfg.Via * Scale
			if cfg.PinVia > 0 && (pinHere || t&pinBit != 0) {
				sc += cfg.PinVia
			}
		} else {
			sc += cfg.WL * Scale
			if cfg.DirPenalty > 0 && (m.X != 0) != (c.L%2 == 0) {
				sc += cfg.DirPenalty
			}
			if cfg.Gamma2 > 0 && (price != nil || sc < 0 || t&reachedBit == 0 || int(n.dist) > g+sc) {
				if gr.In(grid.Cell{X: nc.X + m.X, Y: nc.Y + m.Y, L: nc.L}) {
					if v := gr.AtIndex(ni + e.step[d]); v >= 0 && v != id {
						sc += cfg.Gamma2
					}
				}
			}
		}
		switch {
		case price != nil:
			price[d] = sc
		case sc < 0:
			e.invalid = true // a negative Pen entry priced the step below 0
		case t&reachedBit == 0 || int(n.dist) > g+sc:
			gc := g + sc
			f := gc
			if len(e.targets) == 1 {
				f += e.manhattan(nc, e.targets[0])
			} else {
				f += e.h(nc)
			}
			if f > MaxCost {
				e.invalid = true
				continue
			}
			if t&targetBit == 0 {
				f = min(f+e.entry, MaxCost)
			}
			if f < e.queue.f {
				e.invalid = true
				continue
			}
			n.dist, n.tag = int32(gc), t&^moveMask|reachedBit|uint32(d)
			e.queue.push(item{sub: subKey(gc, uint32(e.Pushes)), idx: int32(ni), f: int32(f)})
			e.Pushes++
			if e.queue.n > e.HeapPeak {
				e.HeapPeak = e.queue.n
			}
		}
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
	e.begin(id, sources, targets, cfg)
	total := 0
	var price [6]int
	for k := 1; k < len(path); k++ {
		from, to := path[k-1], path[k]
		d := moveIndex(grid.Cell{X: to.X - from.X, Y: to.Y - from.Y, L: to.L - from.L})
		if d < 0 || !e.g.In(from) {
			return 0, false
		}
		e.expand(id, e.g.Index(from), 0, &price)
		if price[d] < 0 {
			return 0, false
		}
		total += price[d]
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

// h is the Manhattan distance from c to the nearest of the current
// search's targets, in engine cost units: every planar step costs at least
// WL*Scale and every layer change at least Via*Scale, and h falls by at
// most that much across one step. The estimate of a cell is h, plus the
// entry bound off the targets (expand). It stays consistent, hence
// admissible: a step between two other cells keeps the bound on both
// sides, and a step into a target pays at least its weight plus the bound
// (Config.entryCost). So no push has an estimate below the f being
// expanded, which the bucket queue relies on. The bound moves the f of
// every cell but a target by the same amount, so the order among them is
// the plain Manhattan order and a search expands a prefix of the cells
// the plain estimate would have it expand.
func (e *Engine) h(c grid.Cell) int {
	best := math.MaxInt
	for _, t := range e.targets {
		best = min(best, e.manhattan(c, t))
	}
	return best
}

// manhattan is the Manhattan distance from c to t in engine cost units.
func (e *Engine) manhattan(c, t grid.Cell) int {
	return ((absi(c.X-t.X)+absi(c.Y-t.Y))*e.cfg.WL + absi(c.L-t.L)*e.cfg.Via) * Scale
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
	for {
		rev = append(rev, e.g.CellAt(i))
		m := e.nodes[i].tag & moveMask
		if m == fromSource {
			break
		}
		i -= e.step[m]
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
