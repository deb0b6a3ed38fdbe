package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"sadproute/internal/bench"
	"sadproute/internal/decomp"
	"sadproute/internal/drc"
	"sadproute/internal/grid"
	"sadproute/internal/netlist"
	"sadproute/internal/obs"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// readReps is how many times each pass parses every netlist; setup_s is
// the median repetition, because one parse of a few hundred nets takes
// milliseconds and a single timing of it is mostly noise.
const readReps = 21

// minPasses is the fewest fresh-process passes a batch run makes, so every
// run compares the deterministic counters of at least two processes.
const minPasses = 2

// congestedSpecs is the -scale small shrink of the paper's Test1, Test2
// (fixed pins) and Test6 (three pin candidates) at their published seeds.
func congestedSpecs() []bench.Spec {
	fixed, multi := bench.PaperSpecs(true), bench.PaperSpecs(false)
	var out []bench.Spec
	for _, s := range []bench.Spec{fixed[0], fixed[1], multi[0]} {
		s.Nets /= 5
		s.Tracks /= 2
		s.AvgHPWL = s.Tracks / 10
		s.Blockages /= 5
		s.Name += "-s"
		out = append(out, s)
	}
	return out
}

// childInput is what the parent sends a batch child on standard input.
type childInput struct {
	Names    []string
	Texts    [][]byte // netlist files
	TraceDir string   // non-empty: attach a JSONL trace sink per instance here
}

// instanceOutput is one routed instance as a child reports it, streamed as
// soon as the instance is done so the child holds no finished result.
type instanceOutput struct {
	Name                 string
	Err                  string
	Start, RouteEnd, End int64 // Unix ns around RouteCtx and DecomposeLayersR
	CPUNS                int64 // process user+sys time over the same interval
	AllocBytes           uint64
	GCCycles             uint32
	Nets, Routed, Failed int
	Tot                  decomp.Totals
	Snap                 obs.Snapshot
	Layers               []drc.Layer
	Paths                map[int][]grid.Cell
}

func (o *instanceOutput) routeS() float64 { return float64(o.RouteEnd-o.Start) / 1e9 }
func (o *instanceOutput) evalS() float64  { return float64(o.End-o.RouteEnd) / 1e9 }
func (o *instanceOutput) solveS() float64 { return float64(o.End-o.Start) / 1e9 }

// childTrailer closes a child's output stream.
type childTrailer struct {
	ReadNS    []int64 // per repetition: netlist.Read of every instance
	PeakRSSKB int64   // VmHWM right after the last solve
	Spans     []span
}

// runChild is one batch pass in a fresh process: parse every netlist
// readReps times, then route and evaluate each instance with the default
// router options, as the sadproute command does (recorder on).
func runChild(stdin io.Reader, stdout io.Writer) error {
	var in childInput
	if err := gob.NewDecoder(stdin).Decode(&in); err != nil {
		return fmt.Errorf("child input: %w", err)
	}
	w := bufio.NewWriter(stdout)
	enc := gob.NewEncoder(w)
	var (
		log spanLog
		tr  childTrailer
		nls = make([]*netlist.Netlist, len(in.Texts))
	)
	for rep := 0; rep < readReps; rep++ {
		// Every repetition starts from a collected heap, as the one parse
		// at the start of a real run does, so no repetition pays for the
		// garbage of the one before.
		runtime.GC()
		setup := log.add(0, "setup", "", time.Time{}, time.Time{})
		var sum int64
		for i, text := range in.Texts {
			t0 := time.Now()
			nl, err := netlist.Read(bytes.NewReader(text))
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("%s: %w", in.Names[i], err)
			}
			nls[i] = nl
			sum += t1.Sub(t0).Nanoseconds()
			log.add(setup, "netlist.read", in.Names[i], t0, t1)
			if i == 0 {
				log.list[setup-1].Start = t0.UnixNano()
			}
			log.list[setup-1].End = t1.UnixNano()
		}
		tr.ReadNS = append(tr.ReadNS, sum)
	}

	ds := rules.Node10nm()
	for i, nl := range nls {
		out := instanceOutput{Name: in.Names[i], Nets: len(nl.Nets)}
		rec := obs.New()
		var (
			tf *os.File
			tw *bufio.Writer
		)
		if in.TraceDir != "" {
			var err error
			if tf, err = os.Create(filepath.Join(in.TraceDir, out.Name+".jsonl")); err != nil {
				return err
			}
			tw = bufio.NewWriterSize(tf, 1<<16)
			rec.SetTrace(tw)
		}
		opt := router.Defaults()
		opt.Obs = rec

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		t0 := time.Now()
		res, err := router.RouteCtx(context.Background(), nl, ds, opt)
		t1 := time.Now()
		var results []*decomp.Result
		if err == nil {
			results, out.Tot = res.DecomposeLayersR(rec)
		}
		t2 := time.Now()
		out.CPUNS = (cpuTime() - cpu0).Nanoseconds()
		runtime.ReadMemStats(&ms1)
		if i == len(nls)-1 {
			if tr.PeakRSSKB, err = peakRSSKB("self"); err != nil {
				return err
			}
		}

		out.Start, out.RouteEnd, out.End = t0.UnixNano(), t1.UnixNano(), t2.UnixNano()
		out.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		out.GCCycles = ms1.NumGC - ms0.NumGC
		id := log.add(0, "instance", out.Name, t0, t2)
		log.add(id, "router.route", out.Name, t0, t1)
		log.add(id, "router.evaluate", out.Name, t1, t2)
		if tw != nil {
			if err := tw.Flush(); err != nil {
				tf.Close()
				return err
			}
			if err := tf.Close(); err != nil {
				return err
			}
			if err := rec.TraceErr(); err != nil {
				return err
			}
		}
		if err != nil {
			out.Err = err.Error()
		} else {
			out.Routed, out.Failed, out.Paths = res.Routed, res.Failed, res.Paths
			for l, ly := range res.Layouts() {
				out.Layers = append(out.Layers, drc.FromDecomp(ly, results[l].Materials))
			}
		}
		out.Snap = rec.Snapshot()
		if err := enc.Encode(&out); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	tr.Spans = log.list
	if err := enc.Encode(&tr); err != nil {
		return err
	}
	return w.Flush()
}

// cpuTime returns the user+sys CPU time of this process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// passResult is one child process's pass as the parent saw it.
type passResult struct {
	start, end time.Time
	inst       []instanceOutput
	tr         childTrailer
}

func (p *passResult) setupS() float64 {
	xs := make([]float64, len(p.tr.ReadNS))
	for i, ns := range p.tr.ReadNS {
		xs[i] = float64(ns) / 1e9
	}
	return median(xs)
}

// runPass starts a fresh child, feeds it the instances and collects its
// streamed results. The child is always waited for.
func runPass(exe string, in childInput) (passResult, error) {
	var pr passResult
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
		return pr, err
	}
	cmd := exec.Command(exe, "-child")
	cmd.Stdin = &buf
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return pr, err
	}
	pr.start = time.Now()
	if err := cmd.Start(); err != nil {
		return pr, err
	}
	dec := gob.NewDecoder(bufio.NewReader(stdout))
	derr := func() error {
		for range in.Names {
			var o instanceOutput
			if err := dec.Decode(&o); err != nil {
				return err
			}
			pr.inst = append(pr.inst, o)
		}
		return dec.Decode(&pr.tr)
	}()
	if derr != nil {
		_ = cmd.Process.Kill() // the child is broken; Wait below reaps it
	}
	werr := cmd.Wait()
	pr.end = time.Now()
	if werr != nil {
		return pr, fmt.Errorf("batch child: %w", werr)
	}
	if derr != nil {
		return pr, fmt.Errorf("batch child output: %w", derr)
	}
	return pr, nil
}

// runBatch measures one batch workload: fresh-process passes over the same
// instances until the measuring time is used (at least minPasses), each
// pass verified with the DRC verifier and the pin-to-pin path check.
func runBatch(cfg config, specs []bench.Spec) (report, error) {
	cat, err := loadCatalogue(cfg.root)
	if err != nil {
		return report{}, err
	}
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	// Inputs are the pinned instances; generating them is the benchmark's
	// own work and sits outside every metric.
	var in childInput
	nls := make([]*netlist.Netlist, len(specs))
	var nets int64
	for i, s := range specs {
		nls[i] = bench.Generate(s)
		var b bytes.Buffer
		if err := nls[i].Write(&b); err != nil {
			return report{}, err
		}
		in.Names = append(in.Names, s.Name)
		in.Texts = append(in.Texts, b.Bytes())
		nets += int64(len(nls[i].Nets))
	}
	quiesce()
	traceDir := cfg.buildDir("trace", cfg.workload)
	if cfg.trace {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return report{}, err
		}
	}

	ds := rules.Node10nm()
	var (
		log      spanLog
		passes   []passResult
		passIDs  []int
		verdicts [][]verdict
		drcS     []float64
		prints   []string
	)
	start := time.Now()
	last := 0.0
	for len(passes) < minPasses || since(start)+last <= cfg.seconds {
		// A traced run keeps its first pass untraced: it is the baseline
		// of the tracing overhead.
		in.TraceDir = ""
		if cfg.trace && len(passes) > 0 {
			in.TraceDir = traceDir
		}
		pr, err := runPass(exe, in)
		if err != nil {
			return report{}, err
		}
		last = pr.end.Sub(pr.start).Seconds()
		passID := log.add(0, "pass", "", pr.start, pr.end)
		base := len(log.list)
		for _, s := range pr.tr.Spans {
			parent := passID
			if s.Parent != 0 {
				parent = s.Parent + base
			}
			log.addNS(parent, s.Name, s.Item, s.Start, s.End)
		}

		vs := make([]verdict, len(specs))
		vt0 := time.Now()
		verifyID := log.add(0, "verify", "", vt0, vt0)
		for i := range pr.inst {
			o := &pr.inst[i]
			if o.Err != "" {
				vs[i].fail(false, "route: %s", o.Err)
				continue
			}
			t0 := time.Now()
			verifyLayout(&vs[i], o.Layers, o.Tot, ds)
			log.add(verifyID, "drc.check", o.Name, t0, time.Now())
			checkPaths(&vs[i], nls[i], o.Paths, o.Routed)
			if len(vs[i].problems) > 0 {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.Name, vs[i].problems)
			}
		}
		log.list[verifyID-1].End = time.Now().UnixNano()
		drcS = append(drcS, log.list[verifyID-1].seconds())
		prints = append(prints, batchFingerprint(pr.inst))
		for i := range pr.inst {
			pr.inst[i].Layers, pr.inst[i].Paths = nil, nil
		}
		passes = append(passes, pr)
		passIDs = append(passIDs, passID)
		verdicts = append(verdicts, vs)
		fmt.Printf("pass %d: solve %.3fs setup %.6fs peak %d kB (%.1fs elapsed)\n",
			len(passes), passSolve(&pr), pr.setupS(), pr.tr.PeakRSSKB, since(start))
	}

	det, err := checkDeterminism(cfg, inputsKey(in.Texts), prints)
	if err != nil {
		return report{}, err
	}
	rep := report{Correct: det, Attempted: len(passes) * len(specs)}
	for _, vs := range verdicts {
		for _, v := range vs {
			if v.failed {
				rep.Failed++
			}
			if v.silent {
				rep.Correct = false
			}
		}
	}

	v := values{}
	// End-to-end: medians over passes. Routed nets and overlay come from
	// the verifier; every pass must agree on them (determinism check).
	var setup, solve, cpu, rss []float64
	perInst := make([][]float64, len(specs))
	for i := range passes {
		p := &passes[i]
		setup = append(setup, p.setupS())
		solve = append(solve, passSolve(p))
		var c float64
		for j := range p.inst {
			c += float64(p.inst[j].CPUNS) / 1e9
			perInst[j] = append(perInst[j], p.inst[j].solveS())
		}
		cpu = append(cpu, c)
		rss = append(rss, float64(p.tr.PeakRSSKB)*1024/1e6)
	}
	// A batch "job" is one instance, timed as its median over passes: a
	// percentile over a handful of single passes would follow whichever
	// pass the machine slowed.
	jobs := make([]float64, len(specs))
	for j, xs := range perInst {
		jobs[j] = median(xs)
	}
	var routed, overlayNM int
	for _, vd := range verdicts[0] {
		routed += vd.routed
		overlayNM += vd.overlayNM
	}
	v["setup_s"] = median(setup)
	v["solve_s"] = median(solve)
	v["cpu_s"] = median(cpu)
	v["peak_rss_mb"] = median(rss)
	v["routed_pct"] = 100 * ratio(float64(routed), float64(nets))
	v["overlay_units"] = float64(overlayNM) / float64(ds.WLine)
	v["jobs_per_s"] = ratio(float64(len(specs)), v["solve_s"])
	v["job_p50_s"] = quantile(jobs, 0.5)
	v["job_p90_s"] = quantile(jobs, 0.9)
	fmt.Printf("%s: %d passes; job_p50_s/job_p90_s over %d instances, each the median of %d passes\n",
		cfg.workload, len(passes), len(jobs), len(passes))

	if cfg.trace {
		addBatchLayers(v, &log, passes, passIDs, drcS, nets)
		if err := log.write(cfg.buildDir("spans-" + cfg.workload + ".jsonl")); err != nil {
			return report{}, err
		}
	}
	if rep.Metrics, err = cat.build(cfg.trace, v); err != nil {
		return report{}, err
	}
	return rep, nil
}

func passSolve(p *passResult) float64 {
	var s float64
	for i := range p.inst {
		s += p.inst[i].solveS()
	}
	return s
}

// addBatchLayers derives the per-layer values of a traced batch run from
// its traced passes (every pass but the first), and the tracing overhead
// from the untraced first pass.
func addBatchLayers(v values, log *spanLog, passes []passResult, passIDs []int, drcS []float64, nets int64) {
	traced := passes[1:]
	var read, route, eval, solve, alloc, gcs, self []float64
	stages := map[obs.StageID][]float64{}
	perInst := map[string][]float64{}
	for k := range traced {
		p := &traced[k]
		read = append(read, p.setupS())
		solve = append(solve, passSolve(p))
		self = append(self, log.selfTime(passIDs[k+1]))
		var r, e, a, g float64
		st := map[obs.StageID]float64{}
		for i := range p.inst {
			o := &p.inst[i]
			r += o.routeS()
			e += o.evalS()
			a += float64(o.AllocBytes) / 1e6
			g += float64(o.GCCycles)
			perInst[o.Name] = append(perInst[o.Name], o.routeS())
			for _, s := range []obs.StageID{obs.StageRoute, obs.StageWindowCheck, obs.StageColorFlip, obs.StageFinalRepair, obs.StageDecompose} {
				st[s] += o.Snap.Stage(s).Seconds()
			}
		}
		route, eval, alloc, gcs = append(route, r), append(eval, e), append(alloc, a), append(gcs, g)
		for s, x := range st {
			stages[s] = append(stages[s], x)
		}
	}
	v["netlist.read_s"] = median(read)
	v["router.route_s"] = median(route)
	v["router.evaluate_s"] = median(eval)
	for name, xs := range perInst {
		v["instance."+name+".route_s"] = median(xs)
	}
	for s, xs := range stages {
		v["stage."+s.String()+"_s"] = median(xs)
	}
	v["go.alloc_mb"] = median(alloc)
	v["go.gc_cycles"] = median(gcs)
	v["drc.check_s"] = median(drcS[1:])
	v["harness.self_s"] = median(self)
	v["trace.solve_s"] = median(solve)
	untraced := passSolve(&passes[0])
	v["trace.overhead_pct"] = 100 * ratio(median(solve)-untraced, untraced)

	// Counters are deterministic, so any one pass gives them.
	counters := map[string]int64{}
	var unaccounted int64
	for i := range traced[0].inst {
		o := &traced[0].inst[i]
		o.Snap.EachCounter(func(name string, x int64) { counters[name] += x })
		unaccounted += int64(o.Nets - o.Routed - o.Failed)
	}
	addCounters(v, counters, nets, unaccounted)
}

// peakRSSKB reads VmHWM, the peak resident set size in kB, of a process
// ("self" or a PID) from /proc.
func peakRSSKB(pid string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		var kb int64
		if _, err := fmt.Sscanf(string(line), "VmHWM: %d kB", &kb); err == nil {
			return kb, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
