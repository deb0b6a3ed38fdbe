// Command sadplint is the repo's custom static-analysis pass. It encodes
// invariants the Go compiler cannot check, as self-registering rules over
// a shared type-checked loader (see rule.go). The maprange rule runs on a
// per-function control-flow graph and a small intraprocedural dataflow
// framework (cfg.go, dataflow.go). The full catalogue with examples lives
// in docs/lint-rules.md; in brief:
//
//   - maprange: map-range-derived values must not reach appends or
//     ordered output (fmt print families, Write*, Trace/Debugf calls)
//     without an intervening sort — a taint-style dataflow check.
//   - wallclock: no time.Now/Since/Sleep/... reads and no math/rand in
//     internal/ — the determinism contract behind the byte-identical
//     trace and table guarantees.
//   - goroutine: `go` statements in internal/ only inside the blessed
//     worker pools (internal/bench, internal/serve).
//   - float: no floating point in internal/geom, internal/decomp,
//     internal/grid — the paper's model is integer-grid.
//   - panic: no panic in library packages (internal/...) outside
//     constructor validation (New*/Must*).
//   - getenv: no undocumented os.Getenv/os.LookupEnv reads.
//   - stderr: no direct os.Stderr references in library packages;
//     internal/obs, which owns the sanctioned default, is exempt.
//   - pkgdoc: every internal/ package must open with a package comment.
//     Package-level; not suppressible.
//
// A finding is suppressed by a `//lint:allow <rule> <justification>`
// comment on the same line or the line above; the justification is
// mandatory and an unknown rule name is itself a finding. Built entirely
// on the standard library (go/parser, go/ast, go/token, go/types).
//
// Usage:
//
//	sadplint [-dir moduleRoot] [-json|-github] [patterns...]   # default pattern ./...
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errFindings) {
			fmt.Fprintln(os.Stderr, "sadplint:", err)
		}
		os.Exit(1)
	}
}

// errFindings marks a run that completed but reported findings.
var errFindings = errors.New("findings reported")

// jsonFinding is the stable machine-readable schema of one finding. The
// field set (file/line/col/rule/msg) is a compatibility contract: tools
// may add fields but never rename or remove these.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sadplint", flag.ContinueOnError)
	fs.SetOutput(stdout)
	dir := fs.String("dir", ".", "module root directory to lint")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array (stable schema: file/line/col/rule/msg)")
	asGitHub := fs.Bool("github", false, "emit findings as GitHub Actions error annotations")
	fs.Usage = func() {
		fmt.Fprintln(stdout, "usage: sadplint [-dir moduleRoot] [-json|-github] [patterns...]")
		fmt.Fprintln(stdout, "patterns default to ./...; e.g. ./internal/... or ./internal/decomp")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *asJSON && *asGitHub {
		return errors.New("-json and -github are mutually exclusive")
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l, err := newLoader(*dir)
	if err != nil {
		return err
	}
	findings := lintModule(l, patterns)
	switch {
	case *asJSON:
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File: f.pos.Filename, Line: f.pos.Line, Col: f.pos.Column,
				Rule: f.rule, Msg: f.msg,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	case *asGitHub:
		for _, f := range findings {
			// https://docs.github.com/actions/reference/workflow-commands
			// Annotation messages must keep %, \r, \n escaped.
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=sadplint %s::%s\n",
				f.pos.Filename, f.pos.Line, f.pos.Column, f.rule, githubEscape(f.msg))
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if n := len(findings); n > 0 {
		return fmt.Errorf("%d %w", n, errFindings)
	}
	return nil
}

// githubEscape escapes a message for the workflow-command data section.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
