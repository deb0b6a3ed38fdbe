package main

import (
	"go/ast"
	"go/types"
	"strconv"
)

// wallclock: internal/ packages must not read wall-clock time or import
// math/rand. The determinism contract behind every equivalence proof in
// this repo (byte-identical traces across -jobs values, the
// golden tables, the verdict memo at any capacity) is that nothing in
// internal/ depends on when or where it runs: trace events carry a
// monotonic sequence number, never a timestamp, and all randomness flows
// from explicit seeds (internal/bench's seeded generator).
//
// The sanctioned exceptions — CPU-time metrics in the router/baselines
// and the obs stage timers, which feed reporting columns and never
// geometry — carry `//lint:allow wallclock <why>` so every wall-clock
// read in library code is documented at the call site.

const ruleWallClock = "wallclock"

// wallClockFuncs are the banned time package functions. time.Duration
// arithmetic and formatting stay legal — only reading the clock is the
// hazard.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

func init() {
	register(ruleDef{
		name: ruleWallClock,
		doc:  "no wall-clock reads (time.Now/Since/Sleep/...) or math/rand in internal/",
		file: checkWallClock,
	})
}

func checkWallClock(c *pass) {
	if !c.inInternal() {
		return
	}
	for _, imp := range c.file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if path == "math/rand" || path == "math/rand/v2" {
			c.report(imp.Pos(), ruleWallClock,
				"import %s in internal/: randomness must flow from explicit seeds and be whitelisted", path)
		}
	}
	ast.Inspect(c.file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != "time" || !wallClockFuncs[sel.Sel.Name] {
			return true
		}
		// Only the time package, not a local variable named `time`.
		if obj := c.objectOf(id); obj != nil {
			if _, isPkg := obj.(*types.PkgName); !isPkg {
				return true
			}
		}
		c.report(sel.Pos(), ruleWallClock,
			"time.%s in internal/: wall-clock reads break the determinism contract (lint:allow for timing metrics)",
			sel.Sel.Name)
		return true
	})
}
