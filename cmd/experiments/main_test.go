package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sadproute/internal/bench"
)

func TestHelp(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-h"}, &b); err != nil {
		t.Fatalf("-h should succeed, got %v", err)
	}
	if !strings.Contains(b.String(), "-which") {
		t.Fatalf("-h did not print flag usage:\n%s", b.String())
	}
}

func TestBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &b); err == nil {
		t.Fatal("bad flag should error")
	}
}

// TestTinyInstance regenerates Table II — the one experiment that needs no
// routing — into a temp dir and checks both the console and the file copy.
func TestTinyInstance(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-which", "table2", "-out", dir}, &b); err != nil {
		t.Fatalf("table2 failed: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "Table II") {
		t.Fatalf("console output missing Table II:\n%s", b.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "table2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "color rules") {
		t.Fatalf("table2.txt content unexpected:\n%s", data)
	}
}

// TestBenchLedger runs a routing experiment at the CI smoke scale with
// -bench-json pointing at a directory and checks that a parseable
// BENCH_<rev>.json ledger lands there with one cell per (spec × algo).
func TestBenchLedger(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	args := []string{"-which", "table3", "-scale", "tiny", "-out", dir,
		"-jobs", "2", "-bench-json", dir, "-rev", "smoke"}
	if err := run(args, &b); err != nil {
		t.Fatalf("table3 with -bench-json failed: %v\n%s", err, b.String())
	}
	path := filepath.Join(dir, "BENCH_smoke.json")
	l, err := bench.ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Rev != "smoke" || l.Env.Jobs != 2 || l.Env.RunWallNS <= 0 {
		t.Fatalf("ledger header not stamped: rev=%q env=%+v", l.Rev, l.Env)
	}
	if want := 2 * 3; len(l.Cells) != want { // 2 tiny specs × 3 algorithms
		t.Fatalf("ledger has %d cells, want %d", len(l.Cells), want)
	}
	for i := range l.Cells {
		if l.Cells[i].Exp != "table3" {
			t.Fatalf("cell %d tagged %q, want table3", i, l.Cells[i].Exp)
		}
	}
	if !strings.Contains(b.String(), path) {
		t.Fatalf("console output does not mention the ledger path:\n%s", b.String())
	}

	// A path ending in .json is used verbatim.
	exact := filepath.Join(dir, "custom.json")
	b.Reset()
	if err := run([]string{"-which", "golden", "-out", dir, "-bench-json", exact}, &b); err != nil {
		t.Fatalf("golden with verbatim -bench-json failed: %v\n%s", err, b.String())
	}
	if l, err = bench.ReadLedger(exact); err != nil {
		t.Fatal(err)
	} else if len(l.Cells) == 0 || l.Cells[0].Exp != "golden" {
		t.Fatalf("verbatim-path ledger unexpected: %+v", l.Cells)
	}
}

// TestDecompCacheExperiment runs the memo-cache experiment at the CI
// smoke scale: it routes the largest tiny benchmark with the cache off
// and on, and errors out by itself if the two runs are not
// byte-identical, so a pass here is also an equivalence check.
func TestDecompCacheExperiment(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-which", "decompcache", "-scale", "tiny", "-out", dir}, &b); err != nil {
		t.Fatalf("decompcache failed: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, w := range []string{"hits", "identical", "decompcache —"} {
		if !strings.Contains(out, w) {
			t.Fatalf("decompcache output missing %q:\n%s", w, out)
		}
	}
	if strings.Contains(out, "NO") {
		t.Fatalf("decompcache reported a divergent run:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "decompcache.txt")); err != nil {
		t.Fatal(err)
	}
}

// TestSparsehugeExperiment runs the corridor-search experiment on the
// smallest huge instance (tiny scale): both configs route, every sparse
// run is DRC-checked inside the experiment, and the ledger carries both
// the dense and the relabeled ours-sparse cells.
func TestSparsehugeExperiment(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.json")
	var b strings.Builder
	if err := run([]string{"-which", "sparsehuge", "-scale", "tiny", "-out", dir, "-bench-json", ledger}, &b); err != nil {
		t.Fatalf("sparsehuge failed: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, w := range []string{"det Huge1  dense", "det Huge1  sparse", "fingerprint=", "route-x"} {
		if !strings.Contains(out, w) {
			t.Fatalf("sparsehuge output missing %q:\n%s", w, out)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "sparsehuge.txt")); err != nil {
		t.Fatal(err)
	}
	l, err := bench.ReadLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	algos := map[string]bool{}
	for _, c := range l.Cells {
		if c.Exp == "sparsehuge" {
			algos[c.Algo] = true
		}
	}
	if !algos["ours"] || !algos["ours-sparse"] {
		t.Fatalf("ledger missing sparsehuge cells: %v", algos)
	}
}
