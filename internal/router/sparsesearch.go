package router

import (
	"sadproute/internal/grid"
	"sadproute/internal/netlist"
	"sadproute/internal/obs"
	"sadproute/internal/sparse"
)

// sparseSearch tries to answer a net's first search on the corridor graph
// (internal/sparse) instead of the dense grid. The corridor cost model is
// the uniform part of the dense step cost — wirelength, vias, the
// preferred-direction penalty and the pin-via push-off — and every term
// the dense cost model can add on top (rip-up penalty inflation, the gamma_2
// lookahead) is >= 0, so the corridor optimum lower-bounds the dense
// optimum. Adoption is exact-or-fallback: the snapped path is repriced
// under the full dense step cost, and only a path whose dense cost equals
// its corridor cost is adopted — that equality proves the path is optimal
// for the dense engine's own cost function. Anything else (budget abort,
// hidden extras on the snapped path) falls back to the dense engine, so
// -sparse never degrades routing quality; it only skips dense searches it
// can prove pointless. A corridor NoPath is adopted directly: corridor
// passability equals grid passability.
//
// done=false means "run the dense engine"; the fallback counter is
// recorded by the caller.
func (st *state) sparseSearch(id int, n netlist.Net) (path []grid.Cell, ok, done bool) {
	st.rec.Inc(obs.CtrSparseSearches)
	// The uniform terms of the dense first-search cost model.
	dc := st.searchCfg(nil)
	cfg := sparse.Config{
		WL:         dc.WL,
		Via:        dc.Via,
		DirPenalty: dc.DirPenalty,
		PinVia:     dc.PinVia,
		MaxExpand:  dc.MaxExpand,
	}
	p, cost, out := st.speng.Search(n.A.Candidates, n.B.Candidates, cfg)
	st.rec.Add(obs.CtrSparseNodes, int64(st.speng.Expand))
	switch out {
	case sparse.Aborted:
		return nil, false, false
	case sparse.NoPath:
		st.rec.NetSearch(id, int64(st.speng.Expand))
		return nil, false, true
	}
	if dense, priced := st.repriceDense(id, n, p); !priced || dense != cost {
		return nil, false, false
	}
	st.rec.NetSearch(id, int64(st.speng.Expand))
	return p, true, true
}

// repriceDense prices a candidate path exactly as the dense engine would:
// astar.Engine.Price walks it through the same step-cost function the
// search relaxes with, under the same first-search cost model.
func (st *state) repriceDense(id int, n netlist.Net, path []grid.Cell) (int, bool) {
	return st.eng.Price(int32(id), n.A.Candidates, n.B.Candidates, path, st.searchCfg(st.pen))
}

// sparseEligible gates corridor engagement per search: the lever must be
// on and the net large enough that skipping the dense expansion pays for
// the snapshot. Small nets fall through to the dense
// engine untouched, which keeps standard-cell-scale runs — including the
// CI equivalence smoke — byte-identical with -sparse on or off.
func (st *state) sparseEligible(n netlist.Net) bool {
	return st.sp != nil && n.HPWL() >= st.opt.SparseMinHPWL
}
