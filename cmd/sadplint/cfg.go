package main

import "go/ast"

// This file builds a per-function control-flow graph from the go/ast of a
// function body. The CFG is the substrate of the taint-mode maprange rule,
// whose fixtures BranchSort, Retaint, Reassigned and LoopSort need its
// flow sensitivity: nodes are individual statements, edges are possible
// successors, and a single synthetic exit node stands for every way out
// of the function — falling off the end, any return, and any explicit
// panic.
//
// Compound statements are decomposed so that each executable step gets
// its own node: an `if` contributes its condition (init statements get
// separate nodes), a `for` contributes init/cond/post nodes with the back
// edge through post, a `range` contributes one per-iteration binding
// node, and switch/select contribute a dispatch node fanning out to the
// clause bodies. Function literals are opaque at the enclosing function's
// nodes; their bodies are separate CFGs.

// cfgNode is one executable step. stmt is nil only for the synthetic
// exit node.
type cfgNode struct {
	stmt  ast.Stmt
	succs []*cfgNode
}

// funcCFG is the control-flow graph of one function body. nodes holds
// every node in creation order (source order), which the rules use for
// deterministic reporting; exit is the unique sink.
type funcCFG struct {
	entry *cfgNode
	exit  *cfgNode
	nodes []*cfgNode
	preds map[*cfgNode][]*cfgNode
}

// buildCFG constructs the CFG of a function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	c := &funcCFG{exit: &cfgNode{}}
	b := &cfgBuilder{cfg: c, labels: map[string]*cfgNode{}}
	c.entry = b.stmts(body.List, c.exit)
	c.nodes = append(c.nodes, c.exit)
	for _, p := range b.gotos {
		if dst, ok := b.labels[p.label]; ok {
			p.node.succs = append(p.node.succs, dst)
		} else {
			p.node.succs = append(p.node.succs, c.exit)
		}
	}
	c.preds = map[*cfgNode][]*cfgNode{}
	for _, n := range c.nodes {
		for _, s := range n.succs {
			c.preds[s] = append(c.preds[s], n)
		}
	}
	return c
}

// loopTarget is one enclosing breakable/continuable construct.
type loopTarget struct {
	label    string
	breakDst *cfgNode
	contDst  *cfgNode // nil for switch/select (not continuable)
}

type gotoPatch struct {
	node  *cfgNode
	label string
}

type cfgBuilder struct {
	cfg    *funcCFG
	loops  []loopTarget
	labels map[string]*cfgNode
	gotos  []gotoPatch
	// pendingLabel names the label attached to the next loop/switch built,
	// so `break L` / `continue L` can resolve to it.
	pendingLabel string
	// fallthroughDst is the entry of the next case body while building a
	// switch clause.
	fallthroughDst *cfgNode
}

func (b *cfgBuilder) newNode(s ast.Stmt) *cfgNode {
	n := &cfgNode{stmt: s}
	b.cfg.nodes = append(b.cfg.nodes, n)
	return n
}

// stmts builds the list back to front so each statement knows its
// successor, returning the entry of the list (next when empty).
func (b *cfgBuilder) stmts(list []ast.Stmt, next *cfgNode) *cfgNode {
	for i := len(list) - 1; i >= 0; i-- {
		next = b.stmt(list[i], next)
	}
	return next
}

// takeLabel consumes the pending label for the construct being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findTarget resolves a break/continue to its destination node.
func (b *cfgBuilder) findTarget(label string, cont bool) *cfgNode {
	for i := len(b.loops) - 1; i >= 0; i-- {
		t := b.loops[i]
		if cont && t.contDst == nil {
			continue
		}
		if label == "" || t.label == label {
			if cont {
				return t.contDst
			}
			return t.breakDst
		}
	}
	return b.cfg.exit
}

// stmt builds the subgraph for one statement and returns its entry node.
func (b *cfgBuilder) stmt(s ast.Stmt, next *cfgNode) *cfgNode {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(s.List, next)

	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		entry := b.stmt(s.Stmt, next)
		b.pendingLabel = ""
		b.labels[s.Label.Name] = entry
		return entry

	case *ast.ReturnStmt:
		n := b.newNode(s)
		n.succs = []*cfgNode{b.cfg.exit}
		return n

	case *ast.BranchStmt:
		n := b.newNode(s)
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok.String() {
		case "break":
			n.succs = []*cfgNode{b.findTarget(label, false)}
		case "continue":
			n.succs = []*cfgNode{b.findTarget(label, true)}
		case "goto":
			b.gotos = append(b.gotos, gotoPatch{n, label})
		case "fallthrough":
			dst := b.fallthroughDst
			if dst == nil {
				dst = next
			}
			n.succs = []*cfgNode{dst}
		}
		return n

	case *ast.IfStmt:
		elseEntry := next
		if s.Else != nil {
			elseEntry = b.stmt(s.Else, next)
		}
		thenEntry := b.stmts(s.Body.List, next)
		cond := b.newNode(s)
		cond.succs = []*cfgNode{thenEntry, elseEntry}
		if s.Init != nil {
			init := b.newNode(s.Init)
			init.succs = []*cfgNode{cond}
			return init
		}
		return cond

	case *ast.ForStmt:
		label := b.takeLabel()
		cond := b.newNode(s)
		post := cond
		if s.Post != nil {
			post = b.newNode(s.Post)
			post.succs = []*cfgNode{cond}
		}
		b.loops = append(b.loops, loopTarget{label: label, breakDst: next, contDst: post})
		bodyEntry := b.stmts(s.Body.List, post)
		b.loops = b.loops[:len(b.loops)-1]
		if s.Cond != nil {
			cond.succs = []*cfgNode{bodyEntry, next}
		} else {
			cond.succs = []*cfgNode{bodyEntry} // for{}: leave only via break
		}
		if s.Init != nil {
			init := b.newNode(s.Init)
			init.succs = []*cfgNode{cond}
			return init
		}
		return cond

	case *ast.RangeStmt:
		label := b.takeLabel()
		rn := b.newNode(s)
		b.loops = append(b.loops, loopTarget{label: label, breakDst: next, contDst: rn})
		bodyEntry := b.stmts(s.Body.List, rn)
		b.loops = b.loops[:len(b.loops)-1]
		rn.succs = []*cfgNode{bodyEntry, next}
		return rn

	case *ast.SwitchStmt:
		entry := b.switchClauses(s, s.Body.List, next, true)
		if s.Init != nil {
			init := b.newNode(s.Init)
			init.succs = []*cfgNode{entry}
			return init
		}
		return entry

	case *ast.TypeSwitchStmt:
		entry := b.switchClauses(s, s.Body.List, next, false)
		if s.Init != nil {
			init := b.newNode(s.Init)
			init.succs = []*cfgNode{entry}
			return init
		}
		return entry

	case *ast.SelectStmt:
		label := b.takeLabel()
		sel := b.newNode(s)
		b.loops = append(b.loops, loopTarget{label: label, breakDst: next})
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			bodyEntry := b.stmts(comm.Body, next)
			if comm.Comm != nil {
				bodyEntry = b.stmt(comm.Comm, bodyEntry)
			}
			sel.succs = append(sel.succs, bodyEntry)
		}
		b.loops = b.loops[:len(b.loops)-1]
		if len(sel.succs) == 0 {
			sel.succs = []*cfgNode{b.cfg.exit} // empty select blocks forever
		}
		return sel

	default:
		// Plain statements: assignments, expressions, declarations, defer,
		// go, send, inc/dec, empty. An explicit panic or process exit does
		// not fall through.
		n := b.newNode(s)
		if isTerminalCall(s) {
			n.succs = []*cfgNode{b.cfg.exit}
		} else {
			n.succs = []*cfgNode{next}
		}
		return n
	}
}

// switchClauses builds the dispatch node and clause bodies of a (type)
// switch. Clauses are built back to front so fallthrough can target the
// following clause's body.
func (b *cfgBuilder) switchClauses(s ast.Stmt, clauses []ast.Stmt, next *cfgNode, allowFall bool) *cfgNode {
	label := b.takeLabel()
	disp := b.newNode(s)
	b.loops = append(b.loops, loopTarget{label: label, breakDst: next})
	hasDefault := false
	savedFall := b.fallthroughDst
	entries := make([]*cfgNode, len(clauses))
	follow := next
	for i := len(clauses) - 1; i >= 0; i-- {
		cc := clauses[i].(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		if allowFall {
			b.fallthroughDst = follow
		}
		entries[i] = b.stmts(cc.Body, next)
		follow = entries[i]
	}
	b.fallthroughDst = savedFall
	b.loops = b.loops[:len(b.loops)-1]
	disp.succs = append(disp.succs, entries...)
	if !hasDefault {
		disp.succs = append(disp.succs, next)
	}
	return disp
}

// isTerminalCall reports whether a plain statement never falls through:
// an explicit panic(...) or os.Exit(...) call.
func isTerminalCall(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok && id.Name == "os" && fun.Sel.Name == "Exit" {
			return true
		}
	}
	return false
}

// localInspect visits the expressions that are evaluated at node n's own
// step, pruning nested statements that own separate CFG nodes and the
// bodies of function literals (which execute elsewhere).
func localInspect(s ast.Stmt, fn func(ast.Node) bool) {
	if s == nil {
		return
	}
	visit := func(n ast.Node) {
		if n != nil {
			ast.Inspect(n, pruneFuncLit(fn))
		}
	}
	switch s := s.(type) {
	case *ast.IfStmt:
		visit(s.Cond)
	case *ast.ForStmt:
		visit(s.Cond)
	case *ast.RangeStmt:
		visit(s.X)
		visit(s.Key)
		visit(s.Value)
	case *ast.SwitchStmt:
		visit(s.Tag)
	case *ast.TypeSwitchStmt:
		visit(s.Assign)
	case *ast.SelectStmt, *ast.BlockStmt, *ast.LabeledStmt, *ast.CaseClause, *ast.CommClause:
		// nothing executes at these beyond what nested nodes own
	default:
		visit(s)
	}
}

// pruneFuncLit wraps an inspector so it never descends into function
// literal bodies.
func pruneFuncLit(fn func(ast.Node) bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	}
}

// funcBodies collects every function body in a file — declarations and
// literals — each of which gets its own CFG and dataflow run.
func funcBodies(file *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, n.Body)
			}
		case *ast.FuncLit:
			if n.Body != nil {
				out = append(out, n.Body)
			}
		}
		return true
	})
	return out
}
