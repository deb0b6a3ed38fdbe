package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sadproute/internal/obs"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// ledgerRows routes the harness suite at the given jobs with the given
// router options (nil = defaults) and returns the rows.
func ledgerRows(t *testing.T, jobs int, opt *router.Options) []Metrics {
	t.Helper()
	cfg := RunConfig{Rules: rules.Node10nm(), RouterOptions: opt}
	rows, err := Harness{Jobs: jobs, Cfg: cfg}.Run(harnessCells())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestLedgerDeterministicBytes is the ledger half of the byte-identity
// acceptance criterion: the "det" section of BENCH_*.json is identical
// across runs and -jobs 1/4; wall-clock lives only in the timing/env
// sections.
func TestLedgerDeterministicBytes(t *testing.T) {
	var want []byte
	for _, jobs := range []int{1, 4, 1} {
		l := NewLedger("test", jobs)
		l.Add("suite", ledgerRows(t, jobs, nil))
		got, err := l.DeterministicBytes()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(want) && i < len(got) && want[i] == got[i] {
				i++
			}
			lo := max(i-200, 0)
			t.Fatalf("jobs=%d: deterministic ledger bytes diverge at %d:\n--- want\n...%s\n--- got\n...%s",
				jobs, i, want[lo:min(i+200, len(want))], got[lo:min(i+200, len(got))])
		}
	}
}

// TestLedgerSections checks the two-section split: a sparse run's sparse.*
// counters land in "det" with every other counter, wall time and allocs in
// "timing", and the det section carries counters, histograms and the
// attribution head. The spec draws net half-perimeters from 2 to about 80
// tracks, so some nets reach the router's 40-track corridor-search gate and
// the rest search dense.
func TestLedgerSections(t *testing.T) {
	opt := router.Defaults()
	opt.SparseSearch = true
	long := Spec{Name: "long", Nets: 16, Tracks: 100, Layers: 3, Seed: 7,
		PinCandidates: 1, AvgHPWL: 40, Blockages: 2}
	m, err := Run(Generate(long), AlgoOurs, RunConfig{Rules: rules.Node10nm(), RouterOptions: &opt})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLedger("sections", 1)
	l.Add("suite", []Metrics{m})
	ours := &l.Cells[0]
	for _, name := range []string{"sparse.searches", "sparse.nodes"} {
		if ours.Det.Counters[name] == 0 {
			t.Errorf("det section lacks %s: %v", name, ours.Det.Counters)
		}
	}
	if len(ours.Det.Counters) == 0 || len(ours.Det.Hists) == 0 {
		t.Errorf("det section missing metrics: %+v", ours.Det)
	}
	if h, ok := ours.Det.Hists["astar.expanded_per_search"]; !ok {
		t.Error("det section missing astar histogram")
	} else if len(h.Le) != obs.HistBuckets-1 || len(h.Counts) != obs.HistBuckets {
		t.Errorf("histogram shape: le=%d counts=%d", len(h.Le), len(h.Counts))
	}
	if len(ours.Det.TopNets) == 0 {
		t.Error("det section missing top_nets")
	}
	for i := 1; i < len(ours.Det.TopNets); i++ {
		a, b := ours.Det.TopNets[i-1], ours.Det.TopNets[i]
		if a.Expanded < b.Expanded || (a.Expanded == b.Expanded && a.Net > b.Net) {
			t.Errorf("top_nets not ranked: %+v before %+v", a, b)
		}
	}
	if ours.Timing.WallNS <= 0 {
		t.Error("timing.wall_ns not populated")
	}
	if ours.Timing.AllocBytes <= 0 {
		t.Error("timing.alloc_bytes not populated")
	}
	if len(ours.Timing.StagesNS) == 0 {
		t.Error("timing.stages_ns not populated")
	}
}

// TestLedgerRoundTrip writes a ledger to disk and reads it back.
func TestLedgerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	l := NewLedger("roundtrip", 2)
	l.Add("suite", ledgerRows(t, 1, nil))
	if err := l.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rev != "roundtrip" || got.Schema != LedgerSchema || len(got.Cells) != len(l.Cells) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Env.Jobs != 2 || got.Env.Go == "" || got.Env.RunWallNS <= 0 {
		t.Fatalf("env not stamped: %+v", got.Env)
	}
	wantBytes, _ := l.DeterministicBytes()
	gotBytes, _ := got.DeterministicBytes()
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatal("deterministic bytes changed across serialize/parse round trip")
	}
}

// TestLedgerSchemaMismatch proves ReadLedger refuses foreign schemas
// instead of silently comparing incompatible files.
func TestLedgerSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_bad.json")
	if err := os.WriteFile(path, []byte(`{"schema": 999, "rev": "x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLedger(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch not rejected: %v", err)
	}
}
