package main

import "go/ast"

// goroutine: `go` statements in internal/ are legal only inside the
// blessed worker-pool packages. Every parallel construct in this repo —
// the cell harness (internal/bench) and the sadpd job-server pool
// (internal/serve) — funnels its concurrency through a fixed-size pool
// whose results are keyed by input (canonical-order merge, or per-job
// state owned by one worker at a time), which is what makes the
// parallel runs byte-identical to serial. A goroutine spawned anywhere else is exactly how that
// guarantee dies: side effects land in nondeterministic order and no
// equivalence test covers them. New pool packages join the allowlist
// here, with the same merge obligations.

const ruleGoroutine = "goroutine"

// goroutinePkgs are the packages allowed to spawn goroutines: the
// deterministic cell harness, plus the job-server pool whose routing
// work is single-goroutine per job (TestServeSoakByteIdentical holds it
// to the byte-identical-to-serial bar).
var goroutinePkgs = map[string]bool{
	"internal/bench": true,
	"internal/serve": true,
}

func init() {
	register(ruleDef{
		name: ruleGoroutine,
		doc:  "go statements in internal/ only inside the blessed pools (internal/bench, internal/serve)",
		file: checkGoroutine,
	})
}

func checkGoroutine(c *pass) {
	if !c.inInternal() || goroutinePkgs[c.p.relDir] {
		return
	}
	ast.Inspect(c.file, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			c.report(g.Pos(), ruleGoroutine,
				"go statement outside the blessed worker pools (internal/bench, internal/serve): stray goroutines break the byte-identical-to-serial guarantee")
		}
		return true
	})
}
