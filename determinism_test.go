package sadp

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"sadproute/internal/bench"
	"sadproute/internal/obs"
)

// TestRouteDeterminism guards the ROADMAP's caching/parallelism work: the
// generator must be a pure function of Spec.Seed and the router a pure
// function of its input — two in-process runs produce byte-identical
// netlists, byte-identical routing results, and byte-identical JSONL
// traces (events carry a monotonic sequence number, never wall-clock).
func TestRouteDeterminism(t *testing.T) {
	sp := Spec{
		Name: "det", Nets: 120, Tracks: 48, Layers: 3, Seed: 77,
		PinCandidates: 2, AvgHPWL: 6, Blockages: 2,
	}
	snapshot := func() (netlistBytes []byte, resultDump, trace string) {
		nl := Generate(sp)
		var buf bytes.Buffer
		if err := WriteNetlist(&buf, nl); err != nil {
			t.Fatal(err)
		}
		opt := Defaults()
		rec := NewRecorder()
		var tr bytes.Buffer
		rec.SetTrace(&tr)
		opt.Obs = rec
		res := Route(nl, Node10nm(), opt)
		if err := rec.TraceErr(); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		// Everything but CPU/stage times; fmt prints map keys in sorted
		// order and CountersString excludes durations, so the dump is
		// canonical.
		fmt.Fprintf(&b, "routed=%d failed=%d wl=%d vias=%d\n",
			res.Routed, res.Failed, res.WirelengthCells, res.Vias)
		snap := rec.Snapshot()
		b.WriteString(snap.CountersString())
		// Per-net attribution: NetStats must come back sorted by canonical
		// net id, and its rendering joins the byte-identity contract.
		stats := rec.NetStats()
		for i := 1; i < len(stats); i++ {
			if stats[i-1].Net >= stats[i].Net {
				t.Fatalf("NetStats out of canonical order: net %d before net %d", stats[i-1].Net, stats[i].Net)
			}
		}
		b.WriteString(obs.NetStatsString(stats))
		fmt.Fprintf(&b, "paths=%v\n", res.Paths)
		fmt.Fprintf(&b, "colors=%v\n", res.Colors)
		layers, tot := Evaluate(res)
		fmt.Fprintf(&b, "totals=%+v\n", tot)
		for i, lr := range layers {
			fmt.Fprintf(&b, "layer%d: so=%d tip=%d hard=%d conf=%d\n",
				i, lr.SideOverlayNM, lr.TipOverlayNM, lr.HardOverlays, len(lr.Conflicts))
		}
		return buf.Bytes(), b.String(), tr.String()
	}

	nl1, run1, tr1 := snapshot()
	nl2, run2, tr2 := snapshot()
	if !bytes.Equal(nl1, nl2) {
		t.Fatal("bench.Generate is not byte-identical across runs with the same seed")
	}
	if run1 != run2 {
		t.Fatalf("router.Route is not deterministic across runs:\n--- run1\n%s\n--- run2\n%s", run1, run2)
	}
	if tr1 == "" {
		t.Fatal("trace is empty: the router emitted no events")
	}
	if tr1 != tr2 {
		i := 0
		for i < len(tr1) && i < len(tr2) && tr1[i] == tr2[i] {
			i++
		}
		lo := i - 120
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("JSONL trace is not byte-identical across runs; first divergence at byte %d:\n--- run1\n...%s\n--- run2\n...%s",
			i, tr1[lo:min(i+120, len(tr1))], tr2[lo:min(i+120, len(tr2))])
	}
	// Sanity: every line is a JSON object with a seq field.
	for ln, line := range strings.Split(strings.TrimSuffix(tr1, "\n"), "\n") {
		if !strings.HasPrefix(line, `{"seq":`) || !strings.HasSuffix(line, "}") {
			t.Fatalf("trace line %d is malformed: %q", ln, line)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestRouteDeterminismParallel extends the determinism guarantee to the
// parallel experiment harness: fanning (benchmark × algorithm) cells
// across a worker pool must merge into the same canonical-order Metrics,
// the same per-cell JSONL traces and the same per-net attribution as the
// serial run — workers get private recorders, so concurrency can reorder
// only wall-clock, never results.
func TestRouteDeterminismParallel(t *testing.T) {
	specs := []bench.Spec{
		{Name: "detP1", Nets: 90, Tracks: 40, Layers: 3, Seed: 101, PinCandidates: 2, AvgHPWL: 5, Blockages: 2},
		{Name: "detP2", Nets: 110, Tracks: 44, Layers: 3, Seed: 102, PinCandidates: 1, AvgHPWL: 6, Blockages: 2},
	}
	var cells []bench.Cell
	for _, sp := range specs {
		for _, a := range []bench.Algo{bench.AlgoOurs, bench.AlgoTrimGreedy} {
			cells = append(cells, bench.Cell{Spec: sp, Algo: a})
		}
	}
	type traceFile struct {
		bytes.Buffer
	}
	run := func(jobs int) (string, map[string]*traceFile) {
		traces := map[string]*traceFile{}
		var mu sync.Mutex
		h := bench.Harness{
			Jobs: jobs,
			Cfg:  bench.RunConfig{Rules: Node10nm()},
			TraceWriter: func(c bench.Cell) (io.WriteCloser, error) {
				mu.Lock()
				defer mu.Unlock()
				f := &traceFile{}
				traces[c.String()] = f
				return struct {
					io.Writer
					io.Closer
				}{f, io.NopCloser(nil)}, nil
			},
		}
		rows, err := h.Run(cells)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var b bytes.Buffer
		for _, m := range rows {
			m.CPU = 0
			for j := range m.Obs.StageNS {
				m.Obs.StageNS[j] = 0
			}
			// NetStats rows must emerge in canonical net order at ANY jobs
			// setting: attribution happens in the serial router, so the
			// table is invariant, not just sorted.
			for i := 1; i < len(m.NetStats); i++ {
				if m.NetStats[i-1].Net >= m.NetStats[i].Net {
					t.Fatalf("jobs=%d %s: NetStats out of canonical order (net %d before net %d)",
						jobs, m.Bench, m.NetStats[i-1].Net, m.NetStats[i].Net)
				}
			}
			fmt.Fprintf(&b, "%s/%s rout=%.2f so=%.1f conf=%d wl=%d vias=%d ripups=%d\n%s%s",
				m.Bench, m.Algo, m.RoutabilityPct, m.OverlayUnits,
				m.Conflicts+m.HardOverlays, m.Wirelength, m.Vias, m.Ripups,
				m.Obs.CountersString(), obs.NetStatsString(m.NetStats))
		}
		return b.String(), traces
	}
	serial, serialTr := run(1)
	parallel, parallelTr := run(4)
	if serial != parallel {
		t.Fatalf("parallel harness is not deterministic:\n--- jobs=1\n%s\n--- jobs=4\n%s", serial, parallel)
	}
	if len(serialTr) != 2 {
		t.Fatalf("want 2 traces (one per ours-cell), got %d", len(serialTr))
	}
	for name, s := range serialTr {
		p, ok := parallelTr[name]
		if !ok || s.Len() == 0 {
			t.Fatalf("trace %s missing or empty (parallel present: %v)", name, ok)
		}
		if !bytes.Equal(s.Bytes(), p.Bytes()) {
			t.Fatalf("trace %s is not byte-identical between serial and parallel runs", name)
		}
	}
}
