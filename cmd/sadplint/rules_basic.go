package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The syntactic rules: violations visible from a single expression or
// declaration, no control-flow reasoning needed. Each registers itself
// with the engine in rule.go; the dataflow rules live in their own files.

const (
	ruleFloat  = "float"  // floating point in integer-grid geometry packages
	rulePanic  = "panic"  // panic in library code outside constructor validation
	ruleGetenv = "getenv" // undocumented environment-variable read
	ruleStderr = "stderr" // direct os.Stderr write in library code
	rulePkgDoc = "pkgdoc" // internal/ package without a package comment
)

// floatPkgs are the packages where the paper's integer-grid model forbids
// floating point entirely; every exception needs an explicit whitelist.
var floatPkgs = map[string]bool{
	"internal/geom":   true,
	"internal/decomp": true,
	"internal/grid":   true,
}

func init() {
	register(ruleDef{
		name: ruleGetenv,
		doc:  "os.Getenv/os.LookupEnv reads must be documented and whitelisted",
		file: checkGetenv,
	})
	register(ruleDef{
		name: rulePanic,
		doc:  "no panic in library packages outside New*/Must* constructor validation",
		file: checkPanic,
	})
	register(ruleDef{
		name: ruleStderr,
		doc:  "no direct os.Stderr references in internal/ (diagnostics go through internal/obs)",
		file: checkStderr,
	})
	register(ruleDef{
		name: ruleFloat,
		doc:  "no floating point in the integer-grid packages (geom, decomp, grid)",
		file: checkFloat,
	})
	register(ruleDef{
		name: rulePkgDoc,
		doc:  "every internal/ package opens with a package comment (not suppressible)",
		pkg:  checkPkgDoc,
	})
}

// checkPkgDoc enforces the ARCHITECTURE.md contract that every internal/
// package opens with a package comment stating its role (and, where one
// exists, the paper section it implements). The finding anchors at the
// package clause of the package's first file and — being a package-level
// property, not a line-level one — cannot be suppressed with lint:allow.
func checkPkgDoc(l *loader, p *lintPkg) []finding {
	if !strings.HasPrefix(p.relDir, "internal/") || len(p.files) == 0 {
		return nil
	}
	for _, file := range p.files {
		if file.Doc != nil && strings.TrimSpace(file.Doc.Text()) != "" {
			return nil
		}
	}
	return []finding{{
		pos:  l.fset.Position(p.files[0].Name.Pos()),
		rule: rulePkgDoc,
		msg:  fmt.Sprintf("package %s has no package comment; document its role and paper section", p.relDir),
	}}
}

// checkGetenv flags every os.Getenv / os.LookupEnv call: hidden behavior
// switches must be documented, which the whitelist justification records.
func checkGetenv(c *pass) {
	ast.Inspect(c.file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != "os" {
			return true
		}
		if sel.Sel.Name == "Getenv" || sel.Sel.Name == "LookupEnv" {
			c.report(sel.Pos(), ruleGetenv,
				"os.%s read: environment switches must be documented and whitelisted", sel.Sel.Name)
		}
		return true
	})
}

// checkStderr flags os.Stderr references in library packages (internal/...):
// diagnostics must flow through the internal/obs recorder so callers control
// the destination and tests can capture it. internal/obs itself is exempt,
// as the observability substrate.
func checkStderr(c *pass) {
	if !c.inInternal() || c.p.relDir == "internal/obs" {
		return
	}
	ast.Inspect(c.file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != "os" || sel.Sel.Name != "Stderr" {
			return true
		}
		c.report(sel.Pos(), ruleStderr,
			"os.Stderr in library code: route diagnostics through internal/obs (counters / trace events)")
		return true
	})
}

// checkPanic flags panic calls in library packages (internal/...). Panics
// guarding constructor arguments (functions named New* or Must*) are the
// one accepted idiom.
func checkPanic(c *pass) {
	if !c.inInternal() {
		return
	}
	for _, decl := range c.file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if strings.HasPrefix(fd.Name.Name, "New") || strings.HasPrefix(fd.Name.Name, "Must") {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				c.report(call.Pos(), rulePanic,
					"panic in library func %s: return an error instead", fd.Name.Name)
			}
			return true
		})
	}
}

// checkFloat flags floating point in the integer-grid packages: float
// literals, float type names, and arithmetic whose operands type-check as
// floating point (catching float struct fields combined without any float
// token on the line).
func checkFloat(c *pass) {
	if !floatPkgs[c.p.relDir] {
		return
	}
	isFloat := func(t types.Type) bool {
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
	}
	ast.Inspect(c.file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if n.Kind == token.FLOAT || n.Kind == token.IMAG {
				c.report(n.Pos(), ruleFloat, "float literal %s in integer-grid package", n.Value)
			}
		case *ast.Ident:
			switch n.Name {
			case "float32", "float64", "complex64", "complex128":
				c.report(n.Pos(), ruleFloat, "%s in integer-grid package", n.Name)
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO:
				if isFloat(c.typeOf(n.X)) || isFloat(c.typeOf(n.Y)) {
					c.report(n.OpPos, ruleFloat, "floating-point %s in integer-grid package", n.Op)
				}
			}
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if len(n.Lhs) == 1 && isFloat(c.typeOf(n.Lhs[0])) {
					c.report(n.TokPos, ruleFloat, "floating-point %s in integer-grid package", n.Tok)
				}
			}
		}
		return true
	})
}
