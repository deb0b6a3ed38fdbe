package baseline

import (
	"time"

	"sadproute/internal/fragstore"
	"sadproute/internal/netlist"
	"sadproute/internal/rules"
)

// CutNoMerge is the [16]-style cut-process router: it uses assistant core
// patterns (and lets them merge with main cores — the severe-overlay
// mechanism of the paper's Fig. 22) but never applies the merge technique
// to decompose odd cycles of target patterns, and fixes each net's color
// when it is routed. Any two adjacent target patterns must therefore take
// different masks (LELE-style two-coloring), odd cycles included.
type CutNoMerge struct{}

// Run routes the netlist and returns the result with cut-process layouts.
func (CutNoMerge) Run(nl *netlist.Netlist, ds rules.Set) *Out {
	start := time.Now() //lint:allow wallclock CPU column of the paper's tables; reporting-only, never fed into routing
	c := newCommon(nl, ds)
	for _, id := range nl.HPWLOrder() {
		c.routeGreedy(id)
	}
	c.out.Layouts = fragstore.Layouts(c.frags, c.g, c.colors)
	c.out.Trim = false
	c.out.NaiveAssists = true
	for i := range c.out.Layouts {
		c.out.Layouts[i].NaiveAssists = true
	}
	c.out.CPU = time.Since(start) //lint:allow wallclock CPU column of the paper's tables; reporting-only
	return c.out
}
