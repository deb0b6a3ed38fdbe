package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// maprange: map-iteration-derived values must not reach ordered output
// without an intervening sort. Map iteration order is random per run —
// exactly the nondeterminism class that breaks the repo's byte-identical
// guarantees (parallel == serial tables, reproducible traces, golden
// files).
//
// Since PR 6 this is a taint-style dataflow pass over the function CFG,
// not a syntactic loop-body match. The key/value variables of a `for
// range` over a map are taint sources; taint propagates through
// assignments, string concatenation, function-call results and range over
// tainted slices; it is killed by a sort.*/slices.* call on the value and
// not propagated through commutative numeric accumulation (sum += v is
// order-independent, s += k is not) or the min/max builtins. Sinks are
//
//   - append into a slice that is never sorted in the function: the slice
//     accumulates values in random order (reported whether the append is
//     inside the loop or downstream of it), and
//   - ordered emission: fmt Print/Fprint families, Write/WriteString
//     method calls, and Trace or Debugf calls (obs trace emission) with a
//     tainted argument — the trace sink's byte-identical contract dies
//     the moment a map-ordered value lands in it.
//
// The dataflow formulation both catches leaks the old syntactic rule
// missed (a value picked inside the loop and emitted after it) and stops
// flagging order-independent loop bodies (emitting a constant per entry).

const ruleMapRange = "maprange"

func init() {
	register(ruleDef{
		name: ruleMapRange,
		doc:  "map-range-derived values must not reach append/ordered output without a sort",
		file: checkMapRange,
	})
}

func checkMapRange(c *pass) {
	for _, body := range funcBodies(c.file) {
		checkMapRangeFunc(c, body)
	}
}

// taintState carries the per-function object<->id binding shared by the
// transfer function and the reporting pass.
type taintState struct {
	c    *pass
	ids  map[types.Object]int
	next int
}

func (t *taintState) idOf(obj types.Object) int {
	if obj == nil {
		return -1
	}
	if id, ok := t.ids[obj]; ok {
		return id
	}
	id := t.next
	t.next++
	t.ids[obj] = id
	return id
}

// tainted reports whether any identifier in the expression tree resolves
// to a tainted object. Function literals are opaque.
func (t *taintState) tainted(e ast.Expr, in idset) bool {
	if e == nil {
		return false
	}
	// min/max builtins fold commutatively: max over a map's values is the
	// same whatever the iteration order.
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "min" || id.Name == "max") {
			if _, isFn := t.c.objectOf(id).(*types.Func); !isFn {
				return false
			}
		}
	}
	found := false
	ast.Inspect(e, pruneFuncLit(func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if tid, ok := t.ids[t.c.objectOf(id)]; ok && in.has(tid) {
				found = true
			}
		}
		return !found
	}))
	return found
}

func checkMapRangeFunc(c *pass, body *ast.BlockStmt) {
	// Cheap pre-scan: no map range (pruning nested literals, which get
	// their own run), no analysis.
	hasMapRange := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if rs, ok := n.(*ast.RangeStmt); ok {
			if t := c.typeOf(rs.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					hasMapRange = true
				}
			}
		}
		return !hasMapRange
	})
	if !hasMapRange {
		return
	}

	st := &taintState{c: c, ids: map[types.Object]int{}}
	sorted := sortTargets(body)
	cfg := buildCFG(body)
	transfer := func(n *cfgNode, in idset) idset { return st.transfer(n, in, sorted) }
	in := forwardFlow(cfg, transfer)

	// Reporting pass over nodes in source order (findings are re-sorted
	// globally, so node order only needs to be deterministic).
	for _, n := range cfg.nodes {
		if n.stmt == nil {
			continue
		}
		st.reportSinks(n, in[n], sorted)
	}
}

// rangeOverMap reports whether the range statement iterates a map.
func (t *taintState) rangeOverMap(rs *ast.RangeStmt) bool {
	typ := t.c.typeOf(rs.X)
	if typ == nil {
		return false
	}
	_, isMap := typ.Underlying().(*types.Map)
	return isMap
}

// transfer implements taint propagation for one CFG node.
func (t *taintState) transfer(n *cfgNode, in idset, sorted map[string]bool) idset {
	out := in
	set := func(id int, on bool) {
		if id < 0 {
			return
		}
		if on && !out.has(id) {
			out = out.clone()
			out[id] = struct{}{}
		} else if !on && out.has(id) {
			out = out.clone()
			delete(out, id)
		}
	}
	assignIdent := func(lhs ast.Expr, taint bool) {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
			if obj := t.c.objectOf(id); obj != nil {
				set(t.idOf(obj), taint)
			}
		}
		// Writes through fields/elements are not tracked (no strong
		// updates on aggregates; the append sink covers the common case).
	}

	switch s := n.stmt.(type) {
	case *ast.RangeStmt:
		if t.rangeOverMap(s) {
			assignIdent(s.Key, true)
			assignIdent(s.Value, true)
		} else {
			// Ranging a tainted slice yields tainted elements; the index
			// itself (0..n-1) is deterministic.
			el := t.tainted(s.X, in)
			if s.Value != nil {
				assignIdent(s.Value, el)
			}
			if s.Key != nil {
				if _, isArr := underlyingIndexable(t.c.typeOf(s.X)); !isArr {
					assignIdent(s.Key, el) // e.g. range over tainted string/chan
				} else {
					assignIdent(s.Key, false)
				}
			}
		}
	case *ast.AssignStmt:
		t.transferAssign(s, in, set, assignIdent)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					taint := false
					if len(vs.Values) == len(vs.Names) {
						taint = t.tainted(vs.Values[i], in)
					} else if len(vs.Values) == 1 {
						taint = t.tainted(vs.Values[0], in)
					}
					assignIdent(name, taint)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		if as, ok := s.Assign.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			assignIdent(as.Lhs[0], t.tainted(as.Rhs[0], in))
		}
	case *ast.ExprStmt, *ast.DeferStmt, *ast.GoStmt:
		// A sort call kills the sorted value's taint from here on.
		localInspect(n.stmt, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				for _, obj := range sortCallTargets(call) {
					if o := t.c.objectOf(obj); o != nil {
						set(t.idOf(o), false)
					}
				}
			}
			return true
		})
	}
	return out
}

// transferAssign handles =, :=, and the compound operators. The set and
// assignIdent closures mutate the caller's out-set.
func (t *taintState) transferAssign(s *ast.AssignStmt, in idset,
	set func(int, bool), assignIdent func(ast.Expr, bool)) {
	_ = set
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Lhs {
				assignIdent(s.Lhs[i], t.tainted(s.Rhs[i], in))
			}
		} else if len(s.Rhs) == 1 {
			// Multi-value: x, ok := m[k] / f(...) — all targets share the
			// RHS's taint. Indexing a map with an untainted key is
			// deterministic, so only the expression's own taint counts.
			taint := t.tainted(s.Rhs[0], in)
			for _, lhs := range s.Lhs {
				assignIdent(lhs, taint)
			}
		}
	default:
		// Compound assignment. Numeric/boolean accumulation (sum += v,
		// n |= bit) is order-independent; string concatenation and
		// anything else order-dependent.
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return
		}
		if t.tainted(s.Rhs[0], in) && !isCommutativeAccum(t.c.typeOf(s.Lhs[0]), s.Tok) {
			assignIdent(s.Lhs[0], true)
		}
	}
}

// isCommutativeAccum reports whether a compound assignment on this type
// is order-independent: integer +/-/*/|/&/^, boolean, or float
// accumulation is; string concatenation is not.
func isCommutativeAccum(typ types.Type, tok token.Token) bool {
	if typ == nil {
		return false
	}
	b, ok := typ.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	if b.Info()&types.IsString != 0 {
		return false
	}
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return b.Info()&(types.IsInteger|types.IsFloat|types.IsBoolean) != 0
	}
	return false
}

// underlyingIndexable reports whether t is a slice or array (whose range
// keys are deterministic ints).
func underlyingIndexable(t types.Type) (types.Type, bool) {
	if t == nil {
		return nil, false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem(), true
	case *types.Array:
		return u.Elem(), true
	case *types.Pointer:
		return underlyingIndexable(u.Elem())
	}
	return nil, false
}

// reportSinks flags tainted values reaching order-sensitive sinks at one
// node.
func (t *taintState) reportSinks(n *cfgNode, in idset, sorted map[string]bool) {
	localInspect(n.stmt, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || i >= len(x.Lhs) {
					continue
				}
				fn, ok := call.Fun.(*ast.Ident)
				if !ok || fn.Name != "append" {
					continue
				}
				dst, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident)
				if !ok || sorted[dst.Name] {
					continue
				}
				for _, arg := range call.Args[1:] {
					if t.tainted(arg, in) {
						t.c.report(call.Pos(), ruleMapRange,
							"slice %q collects map-derived values in random order and is never sorted here", dst.Name)
						break
					}
				}
			}
		case *ast.CallExpr:
			name, isSink := sinkCall(x)
			if !isSink {
				return true
			}
			for _, arg := range x.Args {
				if t.tainted(arg, in) {
					t.c.report(x.Pos(), ruleMapRange,
						"%s called with a map-range-derived value: output is random per run (sort first)", name)
					break
				}
			}
		}
		return true
	})
}

// sinkCall classifies ordered-output calls: the fmt print families and
// writer/trace emission methods.
func sinkCall(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln",
		"Write", "WriteString", "WriteByte", "WriteRune",
		"Trace", "Debugf":
		return sel.Sel.Name, true
	}
	return "", false
}

// sortCallTargets returns the identifiers passed to a sort.*/slices.*
// call (unwrapping one conversion, for sort.Sort(byX(ids))).
func sortCallTargets(call *ast.CallExpr) []*ast.Ident {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if id, ok := sel.X.(*ast.Ident); !ok || (id.Name != "sort" && id.Name != "slices") {
		return nil
	}
	var out []*ast.Ident
	for _, arg := range call.Args {
		switch a := arg.(type) {
		case *ast.Ident:
			out = append(out, a)
		case *ast.CallExpr:
			if len(a.Args) == 1 {
				if id, ok := a.Args[0].(*ast.Ident); ok {
					out = append(out, id)
				}
			}
		}
	}
	return out
}

// sortTargets collects identifiers that are passed to any sort.* or
// slices.* call anywhere in the function body — the flow-insensitive
// "is this slice ever sorted here" question the append sink asks.
func sortTargets(body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, id := range sortCallTargets(call) {
			out[id.Name] = true
		}
		return true
	})
	return out
}
