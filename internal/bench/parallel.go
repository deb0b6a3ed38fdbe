package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"sadproute/internal/obs"
	"sadproute/internal/router"
)

// Cell is one (benchmark × algorithm) unit of the evaluation matrix —
// the independent work item the parallel harness schedules. Reproducing
// one of the paper's tables is a slice of Cells.
type Cell struct {
	Spec Spec
	Algo Algo
}

// String names the cell for trace files and diagnostics.
func (c Cell) String() string { return fmt.Sprintf("%s-%s", c.Spec.Name, c.Algo) }

// Harness fans (benchmark × algorithm) cells out across a worker pool and
// merges the results in canonical order (the order of the input cells), so
// a parallel run is indistinguishable from a serial one: identical Metrics
// slices, identical rendered tables, identical per-cell traces — only
// wall-clock fields (Metrics.CPU, Snapshot.StageNS) differ, as they do
// between any two runs. Every cell gets a private obs.Recorder, so counters
// and JSONL trace events never interleave across workers.
//
// Cells are independent: each worker generates its own netlist from the
// cell's Spec (Generate is a pure function of the Spec) and routes it on
// its own grid with its own A* engine. Workers share only the decomposition
// oracle's private scratch pool (internal/decomp), which hands each call
// an engine no other call holds.
type Harness struct {
	// Jobs is the worker count; <= 0 means runtime.GOMAXPROCS(0).
	// Jobs == 1 reproduces the historical serial harness exactly.
	Jobs int
	// Cfg is the shared run configuration. A RouterOptions.Obs recorder set
	// here is ignored: sharing one recorder across workers would interleave
	// traces, so the harness installs a private Recorder per cell instead.
	Cfg RunConfig
	// TraceWriter, when non-nil, opens one JSONL trace sink per AlgoOurs
	// cell (baselines are uninstrumented and never call it). The harness
	// closes the writer when the cell finishes.
	TraceWriter func(c Cell) (io.WriteCloser, error)
}

// Run executes every cell and returns the metrics in input order. On
// failure it returns the error of the lowest-indexed failing cell —
// deterministic regardless of scheduling — and cancels the context handed
// to cells still pending (aborting exhaustive-baseline sweeps promptly).
func (h Harness) Run(cells []Cell) ([]Metrics, error) {
	jobs := h.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(cells) {
		jobs = len(cells)
	}
	results := make([]Metrics, len(cells))
	errs := make([]error, len(cells))

	parent := h.Cfg.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	if jobs <= 1 {
		for i, c := range cells {
			results[i], errs[i] = h.runCell(ctx, c)
			if errs[i] != nil {
				return nil, fmt.Errorf("cell %s: %w", c, errs[i])
			}
		}
		return results, nil
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = h.runCell(ctx, cells[i])
				if errs[i] != nil {
					cancel() // stop handing out work; pending cells abort
				}
			}
		}()
	}
	for i := range cells {
		if ctx.Err() != nil {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", cells[i], err)
		}
	}
	return results, nil
}

// runCell generates and routes one cell with a private recorder (and trace
// sink, if configured). Both sink write errors (Recorder.TraceErr) and the
// trace writer's close error are surfaced: a buffered file writer may only
// discover a full disk at Close, and swallowing that would publish a
// silently truncated trace.
func (h Harness) runCell(ctx context.Context, c Cell) (m Metrics, err error) {
	cfg := h.Cfg
	cfg.Context = ctx
	var rec *obs.Recorder
	if c.Algo == AlgoOurs {
		opt := router.Defaults()
		if cfg.RouterOptions != nil {
			opt = *cfg.RouterOptions
		}
		rec = obs.New()
		if h.TraceWriter != nil {
			w, werr := h.TraceWriter(c)
			if werr != nil {
				return Metrics{}, werr
			}
			defer func() {
				if cerr := w.Close(); cerr != nil && err == nil {
					m, err = Metrics{}, fmt.Errorf("closing trace for %s: %w", c, cerr)
				}
			}()
			rec.SetTrace(w)
		}
		opt.Obs = rec
		cfg.RouterOptions = &opt
	}
	m, err = Run(Generate(c.Spec), c.Algo, cfg)
	if err != nil {
		return Metrics{}, err
	}
	if err := rec.TraceErr(); err != nil {
		return Metrics{}, err
	}
	return m, nil
}

// AggregateObs folds the per-cell observability snapshots of rows, in row
// order, into one aggregate: counters and stage times sum, gauges max.
// Because the harness returns rows in canonical order, the aggregate of a
// parallel run equals the serial run's byte for byte (CountersString).
func AggregateObs(rows []Metrics) obs.Snapshot {
	var agg obs.Snapshot
	for i := range rows {
		agg.Accumulate(&rows[i].Obs)
	}
	return agg
}
