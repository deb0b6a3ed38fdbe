package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// runLint is a helper returning the report text and whether findings (or
// another error) were reported.
func runLint(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf strings.Builder
	err := run(args, &buf)
	return buf.String(), err
}

// TestFixtureFindings proves every rule fires on the seeded violation
// module under testdata, and that whitelisted or out-of-scope variants
// stay silent.
func TestFixtureFindings(t *testing.T) {
	out, err := runLint(t, "-dir", "testdata/mod")
	if err == nil {
		t.Fatalf("expected findings on the fixture module, got a clean run:\n%s", out)
	}
	want := []string{
		// float rule, internal/geom fixture: type names, literal, division
		// between typed operands, compound assignment with no float token
		"internal/geom/geom.go:7:22: [float] float64 in integer-grid package",
		"internal/geom/geom.go:8:9: [float] float64 in integer-grid package",
		"internal/geom/geom.go:8:20: [float] floating-point / in integer-grid package",
		"internal/geom/geom.go:13:9: [float] float literal 0.5 in integer-grid package",
		"internal/geom/geom.go:18:4: [float] floating-point += in integer-grid package",
		// panic rule
		"internal/lib/lib.go:13:2: [panic] panic in library func Explode",
		// maprange rule, syntactic-era cases: unsorted append and a
		// tainted direct write inside the loop
		"internal/lib/lib.go:28:9: [maprange] slice \"out\" collects map-derived values in random order",
		"internal/lib/lib.go:46:3: [maprange] Fprintf called with a map-range-derived value",
		// maprange rule, taint-only cases the syntactic pass missed: a key
		// picked inside the loop and emitted after it, and an append of a
		// derived intermediate
		"internal/lib/lib.go:86:2: [maprange] Fprintln called with a map-range-derived value",
		"internal/lib/lib.go:94:9: [maprange] slice \"out\" collects map-derived values in random order",
		// getenv rule: plain read, and the malformed-directive one
		"internal/lib/lib.go:52:9: [getenv] os.Getenv read",
		"internal/lib/lib.go:63:9: [getenv] os.Getenv read",
		// malformed and unknown-rule directives are themselves findings
		"internal/lib/lib.go:63:40: [directive] lint:allow needs a rule name and a justification",
		"internal/lib/lib.go:132:40: [directive] lint:allow names unknown rule \"nosuchrule\"",
		// stderr rule: direct write in library code
		"internal/lib/lib.go:69:15: [stderr] os.Stderr in library code",
		// pkgdoc rule: internal/ package without a package comment
		"internal/nodoc/nodoc.go:1:9: [pkgdoc] package internal/nodoc has no package comment",
		// immutable rule via the //sadp:immutable marker on the decomp
		// fixture's Result (the retired resultwrite special case) ...
		"internal/consumer/consumer.go:10:2: [immutable] write through decomp.Result field SideOverlayNM",
		"internal/consumer/consumer.go:11:2: [immutable] write through decomp.Result field Overlays",
		"internal/consumer/consumer.go:12:2: [immutable] ++ through decomp.Result field SideOverlayNM",
		// ... and on an unrelated marked type, proving it is marker-driven
		"internal/immutuser/immutuser.go:10:2: [immutable] write through immut.Snapshot field Count",
		"internal/immutuser/immutuser.go:11:2: [immutable] write through immut.Snapshot field Tags",
		"internal/immutuser/immutuser.go:12:2: [immutable] ++ through immut.Snapshot field Count",
		// poolleak rule: early return, panic edge, conditional defer
		"internal/pooluser/pooluser.go:9:7: [poolleak] pool handle e acquired here is not Released on every path",
		"internal/pooluser/pooluser.go:19:7: [poolleak] pool handle e acquired here is not Released on every path",
		"internal/pooluser/pooluser.go:29:7: [poolleak] pool handle e acquired here is not Released on every path",
		// ... and the receiver-only-use leak: `return e.Grind()` does not
		// transfer ownership of e
		"internal/pooluser/pooluser.go:111:7: [poolleak] pool handle e acquired here is not Released on every path",
		// wallclock rule: banned import and the three clock reads
		"internal/clock/clock.go:6:2: [wallclock] import math/rand in internal/",
		"internal/clock/clock.go:12:9: [wallclock] time.Now in internal/",
		"internal/clock/clock.go:17:8: [wallclock] time.Now in internal/",
		"internal/clock/clock.go:18:2: [wallclock] time.Sleep in internal/",
		"internal/clock/clock.go:19:9: [wallclock] time.Since in internal/",
		// goroutine rule: stray goroutine outside the pools
		"internal/gorout/gorout.go:7:2: [goroutine] go statement outside the blessed worker pools",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("missing expected finding %q in output:\n%s", w, out)
		}
	}
	donts := []string{
		"geom.go:23",                // whitelisted percentage signature line
		"geom.go:25",                // whitelisted percentage body line
		"lib.go:19",                 // panic inside NewCounter is constructor validation
		"lib.go:36",                 // sorted map collection is the clean idiom
		"lib.go:57",                 // whitelisted getenv
		"lib.go:74",                 // whitelisted stderr write
		"lib.go:99",                 // Sum: numeric accumulation is order-independent
		"lib.go:103",                // Sum's Fprintf of the untainted total
		"lib.go:110",                // Tally: constant emission per entry
		"lib.go:121",                // EmitSorted: append into a sorted slice
		"lib.go:125",                // EmitSorted: emission after the sort killed the taint
		"obs.go",                    // internal/obs owns the sanctioned os.Stderr default
		"cmd/tool",                  // panic rule does not apply to commands
		"consumer.go:19",            // whitelisted immutable write
		"internal/decomp/decomp.go", // the owning package may write Result fields
		"immut.go",                  // home package builds Snapshots before publication
		"immutuser.go:17",           // whitelisted immutable write
		"pooluser.go:37",            // OKDefer
		"pooluser.go:46",            // OKAllPaths
		"pooluser.go:57",            // OKLoop
		"pooluser.go:65",            // OKDeferClosure
		"pooluser.go:73",            // OKSliceDefer: transfer at birth
		"pooluser.go:86",            // OKReturnTransfer
		"pooluser.go:92",            // OKArgTransfer
		"pooluser.go:98",            // whitelisted poolleak
		"pooluser.go:118",           // OKReturnReceiver: defer + receiver-use return
		"pooluser.go:126",           // OKIntermediateReceiver: receiver call then Release
		"clock.go:26",               // whitelisted wallclock reads
		"clock.go:27",               // whitelisted wallclock reads
		"clock.go:31",               // Duration arithmetic is not a clock read
		"gorout.go:12",              // whitelisted goroutine
		"internal/serve/serve.go",   // allowlisted job-server pool may spawn
	}
	for _, d := range donts {
		if strings.Contains(out, d) {
			t.Errorf("unexpected finding mentioning %q in output:\n%s", d, out)
		}
	}
}

// TestPatternSelection lints only one fixture package and expects findings
// from the other to be absent.
func TestPatternSelection(t *testing.T) {
	out, err := runLint(t, "-dir", "testdata/mod", "./internal/geom")
	if err == nil {
		t.Fatalf("expected float findings, got clean run:\n%s", out)
	}
	if strings.Contains(out, "lib.go") {
		t.Errorf("pattern ./internal/geom leaked findings from internal/lib:\n%s", out)
	}
	if !strings.Contains(out, "geom.go") {
		t.Errorf("pattern ./internal/geom produced no geom findings:\n%s", out)
	}
}

// TestMarkerCrossesPatterns proves the //sadp:immutable marker table is
// built module-wide: linting only the consumer package still sees the
// marker declared in the (unselected) decomp fixture package.
func TestMarkerCrossesPatterns(t *testing.T) {
	out, err := runLint(t, "-dir", "testdata/mod", "./internal/consumer")
	if err == nil {
		t.Fatalf("expected immutable findings, got clean run:\n%s", out)
	}
	if !strings.Contains(out, "[immutable] write through decomp.Result field SideOverlayNM") {
		t.Errorf("marker from unselected package not honored:\n%s", out)
	}
}

// TestJSONOutput locks the machine-readable schema: file/line/col/rule/msg.
func TestJSONOutput(t *testing.T) {
	out, err := runLint(t, "-dir", "testdata/mod", "-json", "./internal/gorout")
	if err == nil {
		t.Fatalf("expected findings, got clean run:\n%s", out)
	}
	var got []struct {
		File string `json:"file"`
		Line int    `json:"line"`
		Col  int    `json:"col"`
		Rule string `json:"rule"`
		Msg  string `json:"msg"`
	}
	if jerr := json.Unmarshal([]byte(out), &got); jerr != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", jerr, out)
	}
	if len(got) != 1 {
		t.Fatalf("want exactly 1 finding from internal/gorout, got %d:\n%s", len(got), out)
	}
	f := got[0]
	if f.File != "internal/gorout/gorout.go" || f.Line != 7 || f.Col != 2 || f.Rule != "goroutine" || f.Msg == "" {
		t.Errorf("unexpected JSON finding: %+v", f)
	}
}

// TestJSONCleanRunEmitsEmptyArray keeps the schema stable for tooling:
// a clean selection still prints a JSON array.
func TestJSONCleanRunEmitsEmptyArray(t *testing.T) {
	out, err := runLint(t, "-dir", "testdata/mod", "-json", "./internal/serve")
	if err != nil {
		t.Fatalf("internal/serve fixture should be clean: %v\n%s", err, out)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("clean -json run should print [], got:\n%s", out)
	}
}

// TestServePoolAllowlisted pins the goroutine-rule allowlist entry for the
// sadpd job-server pool: its worker-spawning fixture lints clean, so the
// real internal/serve needs no //lint:allow escape hatches.
func TestServePoolAllowlisted(t *testing.T) {
	out, err := runLint(t, "-dir", "testdata/mod", "-json", "./internal/serve")
	if err != nil {
		t.Fatalf("internal/serve fixture should be clean: %v\n%s", err, out)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("clean -json run should print [], got:\n%s", out)
	}
}

// TestGitHubOutput checks the workflow-command annotation format CI uses
// to surface findings inline on PRs.
func TestGitHubOutput(t *testing.T) {
	out, err := runLint(t, "-dir", "testdata/mod", "-github", "./internal/gorout")
	if err == nil {
		t.Fatalf("expected findings, got clean run:\n%s", out)
	}
	want := "::error file=internal/gorout/gorout.go,line=7,col=2,title=sadplint goroutine::"
	if !strings.Contains(out, want) {
		t.Errorf("missing annotation %q in output:\n%s", want, out)
	}
	if _, err := runLint(t, "-dir", "testdata/mod", "-json", "-github"); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-json -github together should error, got %v", err)
	}
}

// TestGitHubEscape covers the workflow-command data escapes.
func TestGitHubEscape(t *testing.T) {
	if got := githubEscape("50% done\r\nnext"); got != "50%25 done%0D%0Anext" {
		t.Errorf("githubEscape = %q", got)
	}
}

// TestRepoIsClean is the acceptance gate: the real module lints clean
// with every rule — the four dataflow/deep rules included — enabled.
func TestRepoIsClean(t *testing.T) {
	out, err := runLint(t, "-dir", "../..", "./...")
	if err != nil {
		t.Fatalf("sadplint must exit clean on the repo: %v\n%s", err, out)
	}
}

// TestHelpAndBadFlag covers the CLI contract used by CI.
func TestHelpAndBadFlag(t *testing.T) {
	if out, err := runLint(t, "-h"); err != nil {
		t.Fatalf("-h should succeed, got %v\n%s", err, out)
	} else if !strings.Contains(out, "usage: sadplint") {
		t.Fatalf("-h did not print usage:\n%s", out)
	}
	if _, err := runLint(t, "-definitely-not-a-flag"); err == nil {
		t.Fatal("bad flag should error")
	}
}
