package main

// A minimal intraprocedural forward dataflow framework over funcCFG. The
// facts are sets of small integer ids — the tainted variables of the
// maprange taint pass — and the join is set union, i.e. a may-analysis: a
// fact holds at a node if it holds on ANY path reaching it. That is the
// right polarity for maprange: a value that is map-order-derived on any
// path into a sink is nondeterministic.

// idset is a small immutable-by-convention set of fact ids.
type idset map[int]struct{}

func (s idset) has(id int) bool { _, ok := s[id]; return ok }

func (s idset) clone() idset {
	out := make(idset, len(s))
	for id := range s {
		out[id] = struct{}{}
	}
	return out
}

func (s idset) equal(t idset) bool {
	if len(s) != len(t) {
		return false
	}
	for id := range s {
		if !t.has(id) {
			return false
		}
	}
	return true
}

// union returns s ∪ t, reusing s when t adds nothing.
func union(s, t idset) idset {
	if len(t) == 0 {
		return s
	}
	if len(s) == 0 {
		return t.clone()
	}
	out := s
	cloned := false
	for id := range t {
		if !out.has(id) {
			if !cloned {
				out = s.clone()
				cloned = true
			}
			out[id] = struct{}{}
		}
	}
	return out
}

// transferFunc computes a node's out-set from its in-set. It must treat
// the in-set as read-only and return a fresh (or identical) set.
type transferFunc func(n *cfgNode, in idset) idset

// forwardFlow solves the forward may-analysis to fixpoint and returns the
// in-set of every node. The iteration order follows cfg.nodes (source
// order), repeated until stable; function-sized graphs converge in a
// handful of passes.
func forwardFlow(cfg *funcCFG, transfer transferFunc) map[*cfgNode]idset {
	in := make(map[*cfgNode]idset, len(cfg.nodes))
	out := make(map[*cfgNode]idset, len(cfg.nodes))
	for {
		changed := false
		for _, n := range cfg.nodes {
			var inSet idset
			for _, p := range cfg.preds[n] {
				inSet = union(inSet, out[p])
			}
			if inSet == nil {
				inSet = idset{}
			}
			in[n] = inSet
			var outSet idset
			if n == cfg.exit {
				outSet = inSet
			} else {
				outSet = transfer(n, inSet)
			}
			if prev, ok := out[n]; !ok || !prev.equal(outSet) {
				out[n] = outSet
				changed = true
			}
		}
		if !changed {
			return in
		}
	}
}
