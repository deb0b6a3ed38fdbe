package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sadproute/internal/bench"
)

const goldenTrace = "../../results/golden/trace-gen.jsonl"

// TestGoldenJSON diffs tracetool -json on the checked-in fixture trace
// against the checked-in report: any drift in the report schema or the
// analysis shows up line by line here. After an INTENTIONAL change,
// regenerate with
//
//	go run ./cmd/tracetool -json results/golden/trace-gen.jsonl > results/golden/tracetool-gen.json
//
// and review the diff like any other code change. (The fixture trace
// itself regenerates with benchgen -nets 80 -tracks 40 -seed 7 piped
// through sadproute -trace; CI replays that pipeline too.)
func TestGoldenJSON(t *testing.T) {
	want, err := os.ReadFile("../../results/golden/tracetool-gen.json")
	if err != nil {
		t.Fatalf("reading golden report: %v (regenerate per the comment above)", err)
	}
	var out strings.Builder
	if err := run([]string{"-json", goldenTrace}, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(out.String(), "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("report line %d differs\nwant: %q\ngot:  %q", i+1, w, g)
		}
	}
	t.Fatal("tracetool -json drifted from results/golden/tracetool-gen.json; regenerate if intentional")
}

// TestJSONDeterministic runs the analyzer twice on the same trace; the
// -json bytes must be identical (maps serialize sorted, slices are
// explicitly ordered).
func TestJSONDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := run([]string{"-json", goldenTrace}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-json", goldenTrace}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two runs on the same trace produced different -json bytes")
	}
}

// TestTextReport smoke-checks the human rendering on the fixture.
func TestTextReport(t *testing.T) {
	var out strings.Builder
	if err := run([]string{goldenTrace}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace:", "routing:", "top nets", "rip-ups:", "repair:", "chain depth:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, out.String())
		}
	}
}

// trace builds a JSONL trace from event lines, stamping seq.
func trace(lines ...string) string {
	var b strings.Builder
	for i, l := range lines {
		fmt.Fprintf(&b, "{\"seq\":%d,%s}\n", i+1, l)
	}
	return b.String()
}

func analyzeString(t *testing.T, s string, topK int) *Report {
	t.Helper()
	rep, err := Analyze(strings.NewReader(s), topK)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCausalityChains pins the chain-depth algorithm: a blocker rip-up
// continues the chain of its triggering net, any other cause deepens the
// net's own chain, and a committed route resets the chain.
func TestCausalityChains(t *testing.T) {
	rep := analyzeString(t, trace(
		`"ev":"route_attempt","net":1,"attempt":0`,
		`"ev":"route_ok","net":1,"attempt":0,"wl":4,"vias":0`,
		// Net 2's commit displaces net 1: chain depth 1, trigger 2.
		`"ev":"ripup","net":1,"cause":"blocker","for":2`,
		// Net 3's commit displaces net 1 again before it re-routes; net 3
		// has depth 0, so the chain restarts at depth 1 (not 2).
		`"ev":"ripup","net":1,"cause":"blocker","for":3`,
		// Net 1's own window rip-up deepens its chain: depth 2.
		`"ev":"ripup","net":1,"cause":"window"`,
		// Net 1 now triggers net 4 at depth 3 — the cascade propagates.
		`"ev":"ripup","net":4,"cause":"blocker","for":1`,
		// Net 1 commits; its chain resets.
		`"ev":"route_ok","net":1,"attempt":2,"wl":6,"vias":1`,
		// A fresh self-rip for net 1 starts over at depth 1.
		`"ev":"ripup","net":1,"cause":"infeasible"`,
	), 10)
	if rep.Ripups.Total != 5 || rep.Ripups.MaxChain != 3 {
		t.Fatalf("total=%d max=%d, want 5/3", rep.Ripups.Total, rep.Ripups.MaxChain)
	}
	wantDepths := []ChainDepth{{1, 3}, {2, 1}, {3, 1}}
	if len(rep.Ripups.ChainDepths) != len(wantDepths) {
		t.Fatalf("chain depths %+v, want %+v", rep.Ripups.ChainDepths, wantDepths)
	}
	for i, w := range wantDepths {
		if rep.Ripups.ChainDepths[i] != w {
			t.Errorf("depth row %d = %+v, want %+v", i, rep.Ripups.ChainDepths[i], w)
		}
	}
	// Triggers: nets 1, 2, 3 each caused one blocker rip-up; ties break
	// by ascending net id.
	want := []Trigger{{1, 1}, {2, 1}, {3, 1}}
	if len(rep.Ripups.TopTriggers) != 3 {
		t.Fatalf("triggers %+v, want %+v", rep.Ripups.TopTriggers, want)
	}
	for i, w := range want {
		if rep.Ripups.TopTriggers[i] != w {
			t.Errorf("trigger %d = %+v, want %+v", i, rep.Ripups.TopTriggers[i], w)
		}
	}
	if rep.Ripups.ByCause["blocker"] != 3 || rep.Ripups.ByCause["window"] != 1 || rep.Ripups.ByCause["infeasible"] != 1 {
		t.Errorf("by_cause %+v", rep.Ripups.ByCause)
	}
}

// TestTopNetRanking pins the expensive-net ordering and the topK cut.
func TestTopNetRanking(t *testing.T) {
	rep := analyzeString(t, trace(
		`"ev":"route_attempt","net":5,"attempt":0`,
		`"ev":"route_ok","net":5,"attempt":0,"wl":3,"vias":0`,
		`"ev":"route_attempt","net":7,"attempt":0`,
		`"ev":"ripup","net":7,"cause":"infeasible"`,
		`"ev":"route_attempt","net":7,"attempt":1`,
		`"ev":"route_ok","net":7,"attempt":1,"wl":9,"vias":2`,
		`"ev":"route_attempt","net":2,"attempt":0`,
		`"ev":"route_fail","net":2,"reason":"no_path"`,
	), 2)
	if len(rep.TopNets) != 2 {
		t.Fatalf("topK cut not applied: %+v", rep.TopNets)
	}
	if rep.TopNets[0].Net != 7 || rep.TopNets[0].Attempts != 2 || rep.TopNets[0].WL != 9 || rep.TopNets[0].Vias != 2 {
		t.Errorf("rank 0 = %+v, want net 7 with 2 attempts wl 9", rep.TopNets[0])
	}
	// Nets 2 and 5 tie at 1 attempt, 0 rip-ups; net 2 wins by id.
	if rep.TopNets[1].Net != 2 || rep.TopNets[1].Fails != 1 {
		t.Errorf("rank 1 = %+v, want net 2 with 1 fail", rep.TopNets[1])
	}
	if rep.Routing.MaxAttempt != 1 || rep.Routing.FailByReason["no_path"] != 1 {
		t.Errorf("routing rollup %+v", rep.Routing)
	}
}

// TestFailByReason counts route_fail events per reason: a net whose
// search ran out of budget is counted apart from one with no path.
func TestFailByReason(t *testing.T) {
	rep := analyzeString(t, trace(
		`"ev":"route_attempt","net":1,"attempt":0`,
		`"ev":"route_fail","net":1,"reason":"budget"`,
		`"ev":"route_attempt","net":2,"attempt":0`,
		`"ev":"route_fail","net":2,"reason":"no_path"`,
		`"ev":"route_attempt","net":3,"attempt":0`,
		`"ev":"route_fail","net":3,"reason":"budget"`,
	), 10)
	want := map[string]int64{"budget": 2, "no_path": 1}
	if rep.Routing.Failed != 3 || !reflect.DeepEqual(rep.Routing.FailByReason, want) {
		t.Fatalf("failed %d, by reason %v; want 3, %v", rep.Routing.Failed, rep.Routing.FailByReason, want)
	}
	var out strings.Builder
	if err := rep.Render(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fail budget") {
		t.Errorf("text report has no budget row:\n%s", out.String())
	}
}

// TestSeqValidation proves truncated or interleaved traces are rejected
// rather than silently misanalyzed.
func TestSeqValidation(t *testing.T) {
	bad := "{\"seq\":1,\"ev\":\"route_attempt\",\"net\":0,\"attempt\":0}\n" +
		"{\"seq\":3,\"ev\":\"route_ok\",\"net\":0,\"attempt\":0}\n"
	if _, err := Analyze(strings.NewReader(bad), 10); err == nil || !strings.Contains(err.Error(), "seq 3 follows 1") {
		t.Fatalf("seq gap not rejected: %v", err)
	}
	if _, err := Analyze(strings.NewReader(""), 10); err == nil {
		t.Fatal("empty trace not rejected")
	}
	if _, err := Analyze(strings.NewReader("not json\n"), 10); err == nil {
		t.Fatal("malformed line not rejected")
	}
}

// TestLedgerRollup wires a ledger into the report via -ledger/-cell.
func TestLedgerRollup(t *testing.T) {
	l := bench.NewLedger("t", 1)
	l.Cells = append(l.Cells, bench.LedgerCell{
		Exp: "table3", Bench: "gen", Algo: "ours",
		Det: bench.LedgerDet{Counters: map[string]int64{
			"decomp.cache_hits": 30, "decomp.cache_misses": 10,
		}},
		Timing: bench.LedgerTiming{WallNS: 5e8, StagesNS: map[string]int64{"route": 4e8}},
	})
	path := filepath.Join(t.TempDir(), "BENCH_t.json")
	if err := l.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-ledger", path, goldenTrace}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ledger cell table3/gen/ours", "30/40 hits (75.0%)", "stage route"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("ledger rollup missing %q:\n%s", want, out.String())
		}
	}
	if err := run([]string{"-ledger", path, "-cell", "nosuch", goldenTrace}, &out); err == nil {
		t.Fatal("unmatched -cell should error")
	}
}

// TestBadArgs pins the CLI error contract.
func TestBadArgs(t *testing.T) {
	var out strings.Builder
	if err := run([]string{}, &out); err == nil {
		t.Fatal("missing trace path should error")
	}
	if err := run([]string{"/definitely/not/a/trace.jsonl"}, &out); err == nil {
		t.Fatal("unreadable trace should error")
	}
	out.Reset()
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(out.String(), "usage: tracetool") {
		t.Fatalf("-h did not print usage:\n%s", out.String())
	}
}
