// Command experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §5 for the experiment index):
//
//	experiments -which table2                 # Table II  (color rules)
//	experiments -which table3 -scale paper    # Table III (fixed pins)
//	experiments -which table4 -scale paper    # Table IV  (pin candidates)
//	experiments -which fig20                  # Fig. 20   (runtime scaling)
//	experiments -which fig21,fig22 -out out/  # Figs. 21/22 (SVG + ASCII)
//	experiments -which appendix               # Figs. 24-34 enumeration
//	experiments -which ablation               # design-choice ablations
//	experiments -which stages                 # per-stage timing breakdown
//	experiments -which sparsehuge             # corridor search on the huge family
//
// -scale small shrinks the benchmark sizes for quick runs; -scale paper
// uses the paper's 1.5k-28k-net sizes; -scale tiny is the CI smoke size.
//
// Routing-heavy experiments (table3, table4, fig20, stages) fan their
// (benchmark × algorithm) cells out across -jobs workers (default
// runtime.NumCPU(); -jobs 1 is the historical serial behavior). Results
// merge in canonical order, so the emitted tables are identical for any
// -jobs value — only the CPU columns carry wall-clock noise, as between
// any two runs. -tracedir writes one deterministic JSONL trace per
// ours-cell.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sadproute/internal/bench"
	"sadproute/internal/rules"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		which  = fs.String("which", "table2", "comma list: table2,table3,table4,fig20,fig21,fig22,stages,sparsehuge,golden,appendix,ablation,all")
		scale  = fs.String("scale", "small", "benchmark scale: tiny | small | medium | paper")
		outDir = fs.String("out", "results", "output directory")
		budget = fs.Duration("budget", 30*time.Minute, "per-run time budget for the exhaustive baseline")
		jobs   = fs.Int("jobs", runtime.NumCPU(), "parallel (benchmark x algorithm) cells; 1 = serial")
		trDir  = fs.String("tracedir", "", "write one JSONL trace per ours-cell into this directory")
		bjson  = fs.String("bench-json", "", "write a benchmark ledger: a *.json path is used verbatim, anything else is a directory for BENCH_<rev>.json")
		rev    = fs.String("rev", "dev", "revision label stamped into the benchmark ledger")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	if *trDir != "" {
		if err := os.MkdirAll(*trDir, 0o755); err != nil {
			return err
		}
	}
	sel := map[string]bool{}
	for _, w := range strings.Split(*which, ",") {
		sel[strings.TrimSpace(w)] = true
	}
	all := sel["all"]
	ds := rules.Node10nm()

	emit := func(name string, fn func() (string, error)) error {
		if !all && !sel[name] {
			return nil
		}
		start := time.Now()
		text, err := fn()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		path := filepath.Join(*outDir, name+".txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "== %s (%.1fs) -> %s\n%s\n", name, time.Since(start).Seconds(), path, text)
		return nil
	}

	h := harness{jobs: *jobs, budget: *budget, traceDir: *trDir}
	var ledgerPath string
	if *bjson != "" {
		h.ledger = bench.NewLedger(*rev, *jobs)
		ledgerPath = *bjson
		if !strings.HasSuffix(ledgerPath, ".json") {
			if err := os.MkdirAll(ledgerPath, 0o755); err != nil {
				return err
			}
			ledgerPath = filepath.Join(ledgerPath, "BENCH_"+*rev+".json")
		}
	}
	experiments := []struct {
		name string
		fn   func() (string, error)
	}{
		{"table2", func() (string, error) { return table2(ds), nil }},
		{"appendix", func() (string, error) { return appendix(ds), nil }},
		{"table3", func() (string, error) { return table3(ds, *scale, h) }},
		{"table4", func() (string, error) { return table4(ds, *scale, h) }},
		{"fig20", func() (string, error) { return fig20(ds, *scale, h) }},
		{"stages", func() (string, error) { return stages(ds, *scale, h) }},
		{"sparsehuge", func() (string, error) { return sparsehuge(ds, *scale, h) }},
		{"golden", func() (string, error) { return golden(ds, *outDir, h) }},
		{"fig21", func() (string, error) { return fig21(ds, *outDir) }},
		{"fig22", func() (string, error) { return fig22(ds, *outDir) }},
		{"ablation", func() (string, error) { return ablation(ds, *scale) }},
	}
	for _, e := range experiments {
		if err := emit(e.name, e.fn); err != nil {
			return err
		}
	}
	if h.ledger != nil {
		if err := h.ledger.WriteFile(ledgerPath); err != nil {
			return fmt.Errorf("bench ledger: %w", err)
		}
		fmt.Fprintf(stdout, "== bench ledger (%d cells) -> %s\n", len(h.ledger.Cells), ledgerPath)
	}
	return nil
}

// specsFor scales the paper's benchmark suite.
func specsFor(scale string, fixedPins bool) []bench.Spec {
	specs := bench.PaperSpecs(fixedPins)
	switch scale {
	case "paper":
		return specs
	case "medium":
		return specs[:3]
	case "tiny": // CI smoke: seconds even under -race
		out := make([]bench.Spec, 0, 2)
		for _, s := range specs[:2] {
			s.Nets /= 20
			s.Tracks /= 4
			s.AvgHPWL = 4
			s.Blockages /= 20
			s.Name = fmt.Sprintf("%s-t", s.Name)
			out = append(out, s)
		}
		return out
	default: // small: shrink everything
		out := make([]bench.Spec, 0, 3)
		for i, s := range specs[:3] {
			s.Nets /= 5
			s.Tracks /= 2
			s.AvgHPWL = s.Tracks / 10
			if s.AvgHPWL < 4 {
				s.AvgHPWL = 4
			}
			s.Blockages /= 5
			s.Name = fmt.Sprintf("%s-s", s.Name)
			out = append(out, s)
			_ = i
		}
		return out
	}
}
