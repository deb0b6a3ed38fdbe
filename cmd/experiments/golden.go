package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sadproute/internal/bench"
	"sadproute/internal/rules"
	"sadproute/internal/scenario"
)

// The golden experiment freezes the deterministic core of the paper's
// tables into tab-separated files under results/golden/. Every column is
// a pure function of the benchmark seed and the design rules — no CPU or
// stage-time columns, no budget-dependent algorithms (the exhaustive
// baseline is excluded) — so the files are byte-stable across machines
// and -jobs values. TestGoldenTables diffs freshly
// computed tables against the checked-in files; regenerate after an
// intentional algorithm change with:
//
//	go run ./cmd/experiments -which golden -out results/golden

// goldenTable2TSV renders Table II (scenario color rules) as TSV.
func goldenTable2TSV(ds rules.Set) string {
	var b strings.Builder
	b.WriteString("geometry\ttype\tCC\tCS\tSC\tSS\trule\tminSO\tmaxSO\n")
	for _, c := range canonicalScenarios() {
		prof, ok := scenario.Classify(c.a, c.b, ds)
		if !ok {
			fmt.Fprintf(&b, "%s\t-\t0\t0\t0\t0\tany\t0.0\t0.0\n", c.name)
			continue
		}
		cell := func(a scenario.Assign) string {
			s := fmt.Sprintf("%.1f", float64(prof.Cost[a])/float64(ds.WLine))
			if prof.Forbidden[a] {
				s += "F"
			}
			return s
		}
		minSO, maxSO := prof.Floor(), 0
		for a := scenario.CC; a <= scenario.SS; a++ {
			if prof.Cost[a] > maxSO {
				maxSO = prof.Cost[a]
			}
		}
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%.1f\t%.1f\n",
			c.name, prof.Type, cell(scenario.CC), cell(scenario.CS),
			cell(scenario.SC), cell(scenario.SS), ruleOf(prof),
			float64(minSO)/float64(ds.WLine), float64(maxSO)/float64(ds.WLine))
	}
	return b.String()
}

// goldenTable3TSV renders Table III at tiny scale with the three
// deterministic algorithms as TSV, wall-clock columns omitted.
func goldenTable3TSV(ds rules.Set, h harness) (string, error) {
	rows, err := h.runCells("golden", ds, specsFor("tiny", true),
		[]bench.Algo{bench.AlgoOurs, bench.AlgoTrimGreedy, bench.AlgoCutNoMerge})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("bench\talgo\tnets\troutability_pct\toverlay_units\toverlay_nm\tconflicts\thard\tviolations\twirelength\tvias\tripups\n")
	for _, m := range rows {
		fmt.Fprintf(&b, "%s\t%s\t%d\t%.2f\t%.2f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			m.Bench, m.Algo, m.Nets, m.RoutabilityPct, m.OverlayUnits, m.OverlayNM,
			m.Conflicts, m.HardOverlays, m.Violations, m.Wirelength, m.Vias, m.Ripups)
	}
	return b.String(), nil
}

// golden writes both TSV files into outDir.
func golden(ds rules.Set, outDir string, h harness) (string, error) {
	t2 := goldenTable2TSV(ds)
	t3, err := goldenTable3TSV(ds, h)
	if err != nil {
		return "", err
	}
	for _, f := range []struct{ name, content string }{
		{"table2.tsv", t2},
		{"table3.tsv", t3},
	} {
		if err := os.WriteFile(filepath.Join(outDir, f.name), []byte(f.content), 0o644); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("wrote table2.tsv (%d bytes) and table3.tsv (%d bytes) to %s\n",
		len(t2), len(t3), outDir), nil
}
