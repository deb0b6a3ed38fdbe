// Package obs is the repository's observability substrate — pure
// infrastructure, tied to no paper section: a stdlib-only metrics registry
// (atomic counters, max-tracking gauges, per-stage duration accumulators)
// plus a structured trace-event sink emitting deterministic JSONL (event
// schema: docs/trace-schema.md).
//
// Design constraints, in order:
//
//  1. Near-zero overhead when disabled. Every Recorder method is safe on a
//     nil receiver and reduces to a single predictable branch, so
//     instrumented code passes a nil *Recorder and pays (almost) nothing —
//     see BenchmarkCounterDisabled. Hot loops that would allocate to build
//     trace fields must guard with Tracing().
//  2. Deterministic traces. Events carry a monotonic sequence number, never
//     wall-clock timestamps, and only deterministic payload fields (net
//     ids, layers, counts, outcomes), so two runs of the same seed produce
//     byte-identical JSONL and traces can be golden-tested.
//  3. Concurrency-safe. Counters, gauges and stage accumulators are
//     atomics; the trace sink serializes writers under a mutex (sequence
//     numbers stay unique and dense, interleaving order is the scheduler's).
//
// Stage timers measure wall time and are therefore NOT deterministic; they
// live in the metrics snapshot, never in the trace. Stages may nest
// (StageDecompose runs inside StageWindowCheck and StageEvaluate), so
// stage durations overlap and do not sum to StageTotal.
package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// CounterID names one monotonic counter. The enum is closed: every counter
// the tree increments is declared here so snapshots are fixed-size arrays
// and incrementing is a single atomic add — no map lookups, no allocation.
type CounterID uint8

const (
	// A* engine (internal/astar).
	CtrAstarSearches CounterID = iota
	CtrAstarExpanded
	CtrAstarPushes
	CtrAstarPops
	// Router (internal/router).
	CtrRouteAttempts
	CtrRouteRipups
	CtrRipOddCycle
	CtrRipInfeasible
	CtrRipWindow
	CtrBlockerRips
	CtrNoPath
	CtrRepairPasses
	CtrRepairRips
	// Cut-conflict window check (internal/router/detect.go).
	CtrWindowChecks
	CtrWindowResolved
	CtrWindowFailed
	// Color flipping (internal/colorflip).
	CtrFlipRuns
	CtrFlipInfeasible
	CtrFlipsApplied
	CtrFlipsRejected
	// Decomposition oracle (internal/decomp).
	CtrDecompositions
	CtrDecompBlobs
	CtrDecompBridges
	CtrDecompAssists
	CtrDecompOverlayFrags
	// The router's per-layer memo of oracle verdicts (internal/router). A
	// hit answers a window check or repair pass without running the
	// oracle, so it increments only cache_hits — none of the decomp.* work
	// counters above. The final evaluation is not memoized.
	CtrDecompMemoHits
	CtrDecompMemoMisses
	CtrDecompMemoEvictions
	// Sparse corridor search (internal/sparse, router.Options.SparseSearch).
	// Configuration-dependent: the family exists only with the lever on, so
	// equivalence tests zero it before diffing and the bench ledger routes
	// it to its execution-strategy section. searches counts corridor-graph engagements, fallbacks the
	// engagements whose result the exact repricing check rejected (the
	// dense engine then ran as usual), nodes the corridor nodes expanded.
	CtrSparseSearches
	CtrSparseFallbacks
	CtrSparseNodes

	numCounters
)

var counterNames = [numCounters]string{
	CtrAstarSearches:       "astar.searches",
	CtrAstarExpanded:       "astar.expanded",
	CtrAstarPushes:         "astar.pushes",
	CtrAstarPops:           "astar.pops",
	CtrRouteAttempts:       "router.route_attempts",
	CtrRouteRipups:         "router.ripups",
	CtrRipOddCycle:         "router.rip_odd_cycle",
	CtrRipInfeasible:       "router.rip_infeasible",
	CtrRipWindow:           "router.rip_window",
	CtrBlockerRips:         "router.blocker_rips",
	CtrNoPath:              "router.no_path",
	CtrRepairPasses:        "router.repair_passes",
	CtrRepairRips:          "router.repair_rips",
	CtrWindowChecks:        "window.checks",
	CtrWindowResolved:      "window.resolved",
	CtrWindowFailed:        "window.failed",
	CtrFlipRuns:            "colorflip.dp_runs",
	CtrFlipInfeasible:      "colorflip.dp_infeasible",
	CtrFlipsApplied:        "colorflip.flips_applied",
	CtrFlipsRejected:       "colorflip.flips_rejected",
	CtrDecompositions:      "decomp.decompositions",
	CtrDecompBlobs:         "decomp.blobs",
	CtrDecompBridges:       "decomp.bridges",
	CtrDecompAssists:       "decomp.assists",
	CtrDecompOverlayFrags:  "decomp.overlay_frags",
	CtrDecompMemoHits:      "decomp.cache_hits",
	CtrDecompMemoMisses:    "decomp.cache_misses",
	CtrDecompMemoEvictions: "decomp.cache_evictions",
	CtrSparseSearches:      "sparse.searches",
	CtrSparseFallbacks:     "sparse.fallbacks",
	CtrSparseNodes:         "sparse.nodes",
}

func (c CounterID) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", int(c))
}

// GaugeID names one max-tracking gauge (high-water marks).
type GaugeID uint8

const (
	GaugeAstarHeapPeak GaugeID = iota
	GaugeFlipComponentPeak

	numGauges
)

var gaugeNames = [numGauges]string{
	GaugeAstarHeapPeak:     "astar.heap_peak",
	GaugeFlipComponentPeak: "colorflip.component_peak",
}

func (g GaugeID) String() string {
	if int(g) < len(gaugeNames) {
		return gaugeNames[g]
	}
	return fmt.Sprintf("gauge(%d)", int(g))
}

// StageID names one pipeline stage whose wall time is accumulated.
type StageID uint8

const (
	StageRoute StageID = iota
	StageWindowCheck
	StageColorFlip
	StageFinalRepair
	StageDecompose
	StageEvaluate
	StageTotal

	numStages
)

var stageNames = [numStages]string{
	StageRoute:       "route",
	StageWindowCheck: "window_check",
	StageColorFlip:   "color_flip",
	StageFinalRepair: "final_repair",
	StageDecompose:   "decompose",
	StageEvaluate:    "evaluate",
	StageTotal:       "total",
}

func (s StageID) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Recorder is the metrics registry plus an optional trace sink.
// All methods are safe on a nil receiver (they no-op), which is the
// disabled fast path: instrumented code holds a possibly-nil *Recorder and
// never branches on configuration itself.
type Recorder struct {
	counters [numCounters]atomic.Int64
	gauges   [numGauges]atomic.Int64
	stageNS  [numStages]atomic.Int64
	hists    [numHists][HistBuckets]atomic.Int64

	netMu sync.Mutex
	nets  map[int]*NetStat

	trace *TraceSink
}

// New returns an empty Recorder with no trace sink attached.
func New() *Recorder { return &Recorder{} }

// SetTrace attaches a trace sink writing JSONL events to w. Passing nil
// detaches tracing.
func (r *Recorder) SetTrace(w io.Writer) *TraceSink {
	if w == nil {
		r.trace = nil
		return nil
	}
	r.trace = NewTraceSink(w)
	return r.trace
}

// Add adds n to a counter. No-op on a nil Recorder.
func (r *Recorder) Add(c CounterID, n int64) {
	if r == nil {
		return
	}
	r.counters[c].Add(n)
}

// Inc adds one to a counter. No-op on a nil Recorder.
func (r *Recorder) Inc(c CounterID) {
	if r == nil {
		return
	}
	r.counters[c].Add(1)
}

// Max raises a gauge to v if v exceeds its current value.
func (r *Recorder) Max(g GaugeID, v int64) {
	if r == nil {
		return
	}
	for {
		cur := r.gauges[g].Load()
		if v <= cur || r.gauges[g].CompareAndSwap(cur, v) {
			return
		}
	}
}

// AddStage accumulates wall time into a stage.
func (r *Recorder) AddStage(s StageID, d time.Duration) {
	if r == nil {
		return
	}
	r.stageNS[s].Add(int64(d))
}

// nop is the shared no-op closer returned by Span on a nil Recorder, so the
// disabled path does not allocate.
var nop = func() {}

// Span starts timing a stage and returns the function that stops it:
//
//	defer rec.Span(obs.StageRoute)()
func (r *Recorder) Span(s StageID) func() {
	if r == nil {
		return nop
	}
	start := time.Now()                                          //lint:allow wallclock stage timers are the sanctioned wall-clock sink; trace events never carry time
	return func() { r.stageNS[s].Add(int64(time.Since(start))) } //lint:allow wallclock stage timers are the sanctioned wall-clock sink
}

// Tracing reports whether trace events would be recorded. Hot paths use it
// to skip building event fields entirely.
func (r *Recorder) Tracing() bool { return r != nil && r.trace != nil }

// Trace emits one structured event. Callers on hot paths should guard with
// Tracing() — the variadic field list allocates regardless of sink state.
func (r *Recorder) Trace(ev string, fields ...Field) {
	if r == nil || r.trace == nil {
		return
	}
	r.trace.emit(ev, fields)
}

// TraceErr returns the first write error of the attached trace sink, if any.
func (r *Recorder) TraceErr() error {
	if r == nil || r.trace == nil {
		return nil
	}
	return r.trace.Err()
}

// Snapshot copies the current registry state. A nil Recorder yields the
// zero Snapshot.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for i := range r.counters {
		s.Counters[i] = r.counters[i].Load()
	}
	for i := range r.gauges {
		s.Gauges[i] = r.gauges[i].Load()
	}
	for i := range r.stageNS {
		s.StageNS[i] = r.stageNS[i].Load()
	}
	for i := range r.hists {
		for j := range r.hists[i] {
			s.Hists[i][j] = r.hists[i][j].Load()
		}
	}
	return s
}

// Snapshot is a point-in-time copy of a Recorder's registry. The zero value
// is an empty snapshot. Per-net attribution (NetStats) is variable-size and
// deliberately NOT part of the snapshot; consumers read it straight off the
// Recorder.
type Snapshot struct {
	Counters [numCounters]int64
	Gauges   [numGauges]int64
	StageNS  [numStages]int64
	Hists    [numHists][HistBuckets]int64
}

// Accumulate merges o into s: counters and stage times are summed, gauges
// (high-water marks) are maxed. The bench harness uses it to fold per-cell
// snapshots into one aggregate in canonical cell order, so a parallel run
// merges to exactly the serial run's totals.
func (s *Snapshot) Accumulate(o *Snapshot) {
	for i := range s.Counters {
		s.Counters[i] += o.Counters[i]
	}
	for i := range s.Gauges {
		if o.Gauges[i] > s.Gauges[i] {
			s.Gauges[i] = o.Gauges[i]
		}
	}
	for i := range s.StageNS {
		s.StageNS[i] += o.StageNS[i]
	}
	for i := range s.Hists {
		for j := range s.Hists[i] {
			s.Hists[i][j] += o.Hists[i][j]
		}
	}
}

// ZeroFamily zeroes every counter and histogram whose name starts with
// prefix (e.g. "decomp."), so a fingerprint over the snapshot can leave a
// metric family out.
func (s *Snapshot) ZeroFamily(prefix string) {
	for i := CounterID(0); i < numCounters; i++ {
		if strings.HasPrefix(i.String(), prefix) {
			s.Counters[i] = 0
		}
	}
	for i := HistID(0); i < numHists; i++ {
		if strings.HasPrefix(i.String(), prefix) {
			s.Hists[i] = [HistBuckets]int64{}
		}
	}
}

// Counter returns one counter's value.
func (s *Snapshot) Counter(c CounterID) int64 { return s.Counters[c] }

// Gauge returns one gauge's high-water mark.
func (s *Snapshot) Gauge(g GaugeID) int64 { return s.Gauges[g] }

// Stage returns one stage's accumulated wall time.
func (s *Snapshot) Stage(st StageID) time.Duration { return time.Duration(s.StageNS[st]) }

// EachCounter calls f for every counter in declaration order.
func (s *Snapshot) EachCounter(f func(name string, v int64)) {
	for i := CounterID(0); i < numCounters; i++ {
		f(i.String(), s.Counters[i])
	}
}

// EachStage calls f for every stage in declaration order.
func (s *Snapshot) EachStage(f func(name string, d time.Duration)) {
	for i := StageID(0); i < numStages; i++ {
		f(i.String(), time.Duration(s.StageNS[i]))
	}
}

// CountersString renders counters, gauges and histograms as "name value"
// lines in declaration order. It contains no durations, so for a
// deterministic workload the string is identical across runs (used by the
// determinism regression tests). Histogram names carry the same family
// prefixes as counters ("sparse.", "decomp."), so equivalence dumps that
// zero a counter family by prefix zero its histograms the same way.
func (s *Snapshot) CountersString() string {
	var b strings.Builder
	for i := CounterID(0); i < numCounters; i++ {
		fmt.Fprintf(&b, "counter %-24s %d\n", i.String(), s.Counters[i])
	}
	for i := GaugeID(0); i < numGauges; i++ {
		fmt.Fprintf(&b, "gauge   %-24s %d\n", i.String(), s.Gauges[i])
	}
	for i := HistID(0); i < numHists; i++ {
		b.WriteString(histString(i, s.Hists[i]))
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders the full snapshot: counters, gauges, then stage wall
// times. Stage lines are wall-clock measurements and differ run to run.
func (s *Snapshot) String() string {
	var b strings.Builder
	b.WriteString(s.CountersString())
	for i := StageID(0); i < numStages; i++ {
		fmt.Fprintf(&b, "stage   %-24s %v\n", i.String(), time.Duration(s.StageNS[i]))
	}
	return b.String()
}
