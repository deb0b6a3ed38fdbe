package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// The rule engine. Every rule is a self-registering pass: its file calls
// register() from init() with a name, a one-line doc string, and a file-
// and/or package-level run function. The engine owns everything shared —
// loading and the `//lint:allow` directive index — so a rule is only its
// domain logic. docs/lint-rules.md catalogues the rules themselves.

// finding is one reported violation.
type finding struct {
	pos  token.Position
	rule string
	msg  string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.pos.Filename, f.pos.Line, f.pos.Column, f.rule, f.msg)
}

// ruleDef describes one registered rule.
type ruleDef struct {
	name string
	doc  string
	// file runs once per file of every selected package.
	file func(*pass)
	// pkg runs once per selected package (for package-level properties
	// like pkgdoc that no single line owns).
	pkg func(l *loader, p *lintPkg) []finding
}

var registry []ruleDef

func register(r ruleDef) { registry = append(registry, r) }

// ruleDirective names the pseudo-rule for malformed or unknown lint
// directives; it is not registered (a broken directive must not be able
// to suppress itself).
const ruleDirective = "directive"

// knownRules returns the set of names valid in a lint:allow directive.
func knownRules() map[string]bool {
	out := make(map[string]bool, len(registry))
	for _, r := range registry {
		out[r.name] = true
	}
	return out
}

// lintModule runs every registered rule over the packages selected by
// patterns and returns the surviving findings sorted by position.
func lintModule(l *loader, patterns []string) []finding {
	sort.Slice(registry, func(i, j int) bool { return registry[i].name < registry[j].name })
	known := knownRules()
	var out []finding
	for _, p := range l.sorted() {
		selected := false
		for _, pat := range patterns {
			if p.match(pat) {
				selected = true
				break
			}
		}
		if !selected {
			continue
		}
		for _, file := range p.files {
			out = append(out, lintFile(l, p, file, known)...)
		}
		for _, r := range registry {
			if r.pkg != nil {
				out = append(out, r.pkg(l, p)...)
			}
		}
	}
	for i := range out {
		if rel, err := filepath.Rel(l.root, out[i].pos.Filename); err == nil {
			out[i].pos.Filename = filepath.ToSlash(rel)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		return a.rule < b.rule
	})
	return out
}

// lintFile runs every file-level rule over one file and filters the
// findings through the lint:allow directives.
func lintFile(l *loader, p *lintPkg, file *ast.File, known map[string]bool) []finding {
	ps := &pass{
		l:     l,
		p:     p,
		file:  file,
		allow: map[int]map[string]bool{},
	}
	ps.collectDirectives(known)
	for _, r := range registry {
		if r.file != nil {
			r.file(ps)
		}
	}
	var kept []finding
	for _, f := range ps.findings {
		if f.rule != ruleDirective && (ps.allow[f.pos.Line][f.rule] || ps.allow[f.pos.Line-1][f.rule]) {
			continue
		}
		kept = append(kept, f)
	}
	return kept
}

// pass is the per-file context handed to every file-level rule.
type pass struct {
	l        *loader
	p        *lintPkg
	file     *ast.File
	allow    map[int]map[string]bool // line -> rules allowed on that line
	findings []finding
}

func (c *pass) report(pos token.Pos, rule, format string, args ...any) {
	c.findings = append(c.findings, finding{
		pos:  c.l.fset.Position(pos),
		rule: rule,
		msg:  fmt.Sprintf(format, args...),
	})
}

// inInternal reports whether the file's package is a library package
// (under internal/), where the library-only rules apply.
func (c *pass) inInternal() bool {
	return strings.HasPrefix(c.p.relDir, "internal/") || c.p.relDir == "internal"
}

// typeOf returns the checked type of e, or nil when type checking could
// not resolve it.
func (c *pass) typeOf(e ast.Expr) types.Type {
	if c.p.info == nil {
		return nil
	}
	if tv, ok := c.p.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// objectOf resolves an identifier to its declared or used object, or nil.
func (c *pass) objectOf(id *ast.Ident) types.Object {
	if c.p.info == nil {
		return nil
	}
	if o := c.p.info.Defs[id]; o != nil {
		return o
	}
	return c.p.info.Uses[id]
}

// collectDirectives indexes `//lint:allow <rule> <justification>` comments
// by line. A directive with no rule, an unknown rule name, or no
// justification is itself a finding and suppresses nothing.
func (c *pass) collectDirectives(known map[string]bool) {
	for _, cg := range c.file.Comments {
		for _, cm := range cg.List {
			rest, ok := strings.CutPrefix(cm.Text, "//lint:allow")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				c.report(cm.Pos(), ruleDirective,
					"lint:allow needs a rule name and a justification: //lint:allow <rule> <why>")
				continue
			}
			if !known[fields[0]] {
				c.report(cm.Pos(), ruleDirective,
					"lint:allow names unknown rule %q (see docs/lint-rules.md for the catalogue)", fields[0])
				continue
			}
			line := c.l.fset.Position(cm.Pos()).Line
			if c.allow[line] == nil {
				c.allow[line] = map[string]bool{}
			}
			c.allow[line][fields[0]] = true
		}
	}
}
