package baseline

import (
	"time"

	"sadproute/internal/astar"
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
type CutNoMerge struct {
	MaxRipup int
}

// Run routes the netlist and returns the result with cut-process layouts.
func (t CutNoMerge) Run(nl *netlist.Netlist, ds rules.Set) *Out {
	start := time.Now() //lint:allow wallclock CPU column of the paper's tables; reporting-only, never fed into routing
	if t.MaxRipup == 0 {
		t.MaxRipup = 3
	}
	c := newCommon(nl, ds)
	for _, id := range nl.HPWLOrder() {
		t.routeNet(c, id)
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

func (t CutNoMerge) routeNet(c *common, id int) {
	n := c.nl.Nets[id]
	for attempt := 0; ; attempt++ {
		path, out := c.search(id, n)
		if out != astar.Found {
			c.out.Failed++
			return
		}
		c.commit(id, path)
		conflicts := 0
		for l := 0; l < c.nl.Layers; l++ {
			if !c.frags[l].Has(id) {
				continue
			}
			col, cnt := greedyTrimColor(c, l, id)
			c.colors[l][id] = col
			conflicts += cnt
		}
		if conflicts == 0 {
			c.out.Routed++
			return
		}
		c.ripup(id, path)
		c.out.Ripups++
		if attempt >= t.MaxRipup {
			c.out.Failed++
			return
		}
		for _, cell := range path {
			c.pen[c.g.Index(cell)] += 4
		}
	}
}
