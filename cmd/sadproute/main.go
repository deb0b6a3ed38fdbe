// Command sadproute routes a netlist file with the overlay-aware SADP
// detailed router, evaluates the result with the decomposition oracle, and
// optionally renders it:
//
//	sadproute -in design.nl               # route, print metrics
//	sadproute -in design.nl -svg out/     # also write per-layer SVGs
//	sadproute -in design.nl -no-flip      # ablate the color-flipping DP
//	sadproute -in design.nl -trace t.jsonl -metrics  # observability
//	sadproute -in design.nl -result r.txt            # canonical result dump
//	sadproute -in design.nl -cpuprofile cpu.pprof    # profiling
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"sadproute"
	"sadproute/internal/decomp"
	"sadproute/internal/obs"
	"sadproute/internal/render"
	"sadproute/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sadproute:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("sadproute", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		in         = fs.String("in", "", "netlist file (see package netlist for the format)")
		svgDir     = fs.String("svg", "", "directory for per-layer SVG renderings (optional)")
		noFlip     = fs.Bool("no-flip", false, "disable the color-flipping DP")
		dcache     = fs.Bool("decomp-cache", true, "memoize the decomposition oracle by layout content (internal/decomp); result byte-identical either way")
		sparseOn   = fs.Bool("sparse", false, "route long nets on the corridor graph (internal/sparse); adopted paths are dense-cost-optimal")
		noGamma    = fs.Bool("no-gamma", false, "disable the type-2-b routing penalty")
		traceFile  = fs.String("trace", "", "write a deterministic JSONL trace of the run to this file")
		resultFile = fs.String("result", "", "write the canonical deterministic result dump (summary, paths, colors, counters; no wall-clock) to this file — byte-identical to the sadpd daemon's result_text for the same input")
		metrics    = fs.Bool("metrics", false, "print the full counter/gauge/stage-timing snapshot")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *in == "" {
		fs.Usage()
		return errors.New("missing -in netlist file")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	nl, err := sadp.ReadNetlist(f)
	f.Close()
	if err != nil {
		return err
	}

	if *cpuProfile != "" {
		cf, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer cf.Close()
		if err := pprof.StartCPUProfile(cf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	opt := sadp.Defaults()
	opt.DecompCache = *dcache
	opt.SparseSearch = *sparseOn
	if *noFlip {
		opt.ColorFlip = false
	}
	if *noGamma {
		opt.Gamma2 = 0
	}
	rec := sadp.NewRecorder()
	opt.Obs = rec
	var traceOut *os.File
	if *traceFile != "" {
		traceOut, err = os.Create(*traceFile)
		if err != nil {
			return err
		}
		// Surface the close error: the OS may only report a failed flush
		// (full disk, dead NFS handle) at Close, and swallowing it would
		// publish a silently truncated trace as if it were complete.
		defer func() {
			if cerr := traceOut.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing trace %s: %w", *traceFile, cerr)
			}
		}()
		rec.SetTrace(traceOut)
	}

	ds := sadp.Node10nm()
	stopTotal := rec.Span(obs.StageTotal)
	res := sadp.Route(nl, ds, opt)
	stopEval := rec.Span(obs.StageEvaluate)
	_, tot := sadp.EvaluateR(res, rec)
	stopEval()
	stopTotal()
	snap := rec.Snapshot()

	if *resultFile != "" {
		txt := serve.RenderResultText(nl, res, tot, &snap)
		if err := os.WriteFile(*resultFile, []byte(txt), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *resultFile)
	}

	fmt.Fprintf(stdout, "design        : %s (%d nets, %dx%d tracks, %d layers)\n",
		nl.Name, len(nl.Nets), nl.W, nl.H, nl.Layers)
	fmt.Fprintf(stdout, "routability   : %.2f%% (%d routed, %d failed)\n", res.Routability(), res.Routed, res.Failed)
	fmt.Fprintf(stdout, "wirelength    : %d tracks, %d vias, %d rip-ups\n",
		res.WirelengthCells, res.Vias, snap.Counter(obs.CtrRouteRipups))
	fmt.Fprintf(stdout, "side overlay  : %.1f units (%d nm), tips %d nm\n", tot.SideOverlayUnits, tot.SideOverlayNM, tot.TipOverlayNM)
	fmt.Fprintf(stdout, "hard overlays : %d\n", tot.HardOverlays)
	fmt.Fprintf(stdout, "cut conflicts : %d\n", tot.Conflicts)
	fmt.Fprintf(stdout, "violations    : %d\n", tot.Violations)
	fmt.Fprintf(stdout, "CPU           : %v\n", res.CPU)

	if *metrics {
		fmt.Fprintf(stdout, "\nmetrics:\n%s", snap.String())
	}
	if traceOut != nil {
		if err := rec.TraceErr(); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *traceFile)
	}

	if *memProfile != "" {
		mf, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer mf.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			return err
		}
	}

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
		for l, ly := range res.Layouts() {
			path := filepath.Join(*svgDir, fmt.Sprintf("layer%d.svg", l))
			out, err := os.Create(path)
			if err != nil {
				return err
			}
			r := decomp.DecomposeCut(ly)
			if err := render.SVG(out, ly, r, ly.Die); err != nil {
				out.Close()
				return err
			}
			out.Close()
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
	}
	return nil
}
