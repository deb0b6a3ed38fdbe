// Ledger is the continuous benchmark ledger: a machine-readable
// BENCH_<rev>.json capturing what each experiment cell did (deterministic
// work metrics) and what it cost (wall-clock and allocation measurements),
// so perf claims are diffable across revisions (cmd/benchdiff) instead of
// hand-pasted into EXPERIMENTS.md.
//
// The schema separates two trust levels per cell, and consumers must not
// mix them:
//
//   - "det" is byte-identical across runs, machines and -jobs for a
//     fixed spec and router options: result metrics, counters, gauges,
//     histograms and the per-net attribution top list. The determinism
//     tests compare ledgers on this section alone (DeterministicBytes).
//   - "timing" is wall-clock and allocation measurement — never
//     reproducible, compared only with noise thresholds (cmd/benchdiff).
//
// Top-level "env" records the run environment (Go version, CPU count,
// jobs) and is likewise nondeterministic.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"sadproute/internal/obs"
)

// LedgerSchema versions the BENCH_*.json format; benchdiff refuses to
// compare ledgers of different schemas.
const LedgerSchema = 1

// Ledger accumulates experiment rows and serializes them as BENCH_<rev>.json.
type Ledger struct {
	Schema int          `json:"schema"`
	Rev    string       `json:"rev"`
	Cells  []LedgerCell `json:"cells"`
	Env    LedgerEnv    `json:"env"`

	start time.Time
}

// LedgerCell is one (experiment × benchmark × algorithm) row.
type LedgerCell struct {
	Exp    string       `json:"exp"`
	Bench  string       `json:"bench"`
	Algo   string       `json:"algo"`
	Det    LedgerDet    `json:"det"`
	Timing LedgerTiming `json:"timing"`
}

// Key identifies the cell across ledgers (benchdiff matches on it).
func (c *LedgerCell) Key() string { return c.Exp + "/" + c.Bench + "/" + c.Algo }

// LedgerDet is the deterministic section: byte-identical across runs,
// machines and -jobs for a fixed spec, rules set and router options.
type LedgerDet struct {
	Nets         int     `json:"nets"`
	NA           bool    `json:"na,omitempty"`
	Routability  float64 `json:"routability_pct"`
	OverlayNM    int     `json:"overlay_nm"`
	Conflicts    int     `json:"conflicts"`
	HardOverlays int     `json:"hard_overlays"`
	Violations   int     `json:"violations"`
	Wirelength   int     `json:"wirelength"`
	Vias         int     `json:"vias"`
	Ripups       int     `json:"ripups"`
	// Counters and Gauges hold the nonzero metrics by name (encoding/json
	// emits map keys sorted, so the bytes are stable).
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	// Hists holds each non-empty histogram's full bucket-count array plus
	// its inclusive upper bounds (the last bucket is overflow).
	Hists map[string]LedgerHist `json:"hists,omitempty"`
	// TopNets is the head of the per-net work attribution table, ranked by
	// expanded nodes descending (net id ascending on ties).
	TopNets []LedgerNet `json:"top_nets,omitempty"`
}

// LedgerHist is one serialized histogram.
type LedgerHist struct {
	Le     []int64 `json:"le"` // inclusive upper bounds of buckets 0..n-2
	Counts []int64 `json:"counts"`
}

// LedgerNet is one row of the serialized attribution table.
type LedgerNet struct {
	Net      int   `json:"net"`
	Attempts int64 `json:"attempts"`
	Searches int64 `json:"searches"`
	Expanded int64 `json:"expanded"`
	Ripups   int64 `json:"ripups"`
	Fails    int64 `json:"fails,omitempty"`
}

// LedgerTiming is the wall-clock section — measurement, never identity.
// Allocation deltas are process-wide (runtime.MemStats), so under a
// parallel harness they include concurrent cells' allocations; compare
// them only across equal -jobs settings and with generous thresholds.
type LedgerTiming struct {
	WallNS       int64            `json:"wall_ns"` // StageTotal of the cell
	CPUNS        int64            `json:"cpu_ns"`  // Metrics.CPU (routing only)
	StagesNS     map[string]int64 `json:"stages_ns,omitempty"`
	AllocBytes   int64            `json:"alloc_bytes,omitempty"`
	AllocObjects int64            `json:"alloc_objects,omitempty"`
}

// LedgerEnv records the run environment.
type LedgerEnv struct {
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	NumCPU int    `json:"num_cpu"`
	Jobs   int    `json:"jobs"`
	// RunWallNS is the wall time from NewLedger to Finish — the whole
	// experiment sweep, including harness overhead between cells.
	RunWallNS int64 `json:"run_wall_ns"`
}

// topNetsLimit bounds the serialized attribution table per cell; the full
// table is available to tracetool via the trace, the ledger keeps the head
// that regression triage actually reads.
const topNetsLimit = 16

// NewLedger starts an empty ledger for one revision and stamps the
// environment.
func NewLedger(rev string, jobs int) *Ledger {
	return &Ledger{
		Schema: LedgerSchema,
		Rev:    rev,
		Env: LedgerEnv{
			Go:     runtime.Version(),
			GOOS:   runtime.GOOS,
			GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(),
			Jobs:   jobs,
		},
		start: time.Now(), //lint:allow wallclock ledger run-duration stamp; timing section only, never in det
	}
}

// Add appends one experiment's rows to the ledger in row (canonical)
// order.
func (l *Ledger) Add(exp string, rows []Metrics) {
	for i := range rows {
		l.Cells = append(l.Cells, makeCell(exp, &rows[i]))
	}
}

// Finish stamps the total run wall time. Write calls it implicitly if the
// caller has not.
func (l *Ledger) Finish() {
	if l.Env.RunWallNS == 0 && !l.start.IsZero() {
		l.Env.RunWallNS = int64(time.Since(l.start)) //lint:allow wallclock ledger run-duration stamp; timing section only, never in det
	}
}

func makeCell(exp string, m *Metrics) LedgerCell {
	c := LedgerCell{
		Exp:   exp,
		Bench: m.Bench,
		Algo:  m.Algo,
		Det: LedgerDet{
			Nets:         m.Nets,
			NA:           m.NA,
			Routability:  m.RoutabilityPct,
			OverlayNM:    m.OverlayNM,
			Conflicts:    m.Conflicts,
			HardOverlays: m.HardOverlays,
			Violations:   m.Violations,
			Wirelength:   m.Wirelength,
			Vias:         m.Vias,
			Ripups:       m.Ripups,
		},
		Timing: LedgerTiming{
			WallNS:       m.Obs.StageNS[obs.StageTotal],
			CPUNS:        int64(m.CPU),
			AllocBytes:   m.AllocBytes,
			AllocObjects: m.AllocObjects,
		},
	}
	m.Obs.EachCounter(func(name string, v int64) {
		if v == 0 {
			return
		}
		if c.Det.Counters == nil {
			c.Det.Counters = map[string]int64{}
		}
		c.Det.Counters[name] = v
	})
	for g := obs.GaugeID(0); int(g) < len(m.Obs.Gauges); g++ {
		if v := m.Obs.Gauges[g]; v != 0 {
			if c.Det.Gauges == nil {
				c.Det.Gauges = map[string]int64{}
			}
			c.Det.Gauges[g.String()] = v
		}
	}
	m.Obs.EachHist(func(id obs.HistID, name string, counts [obs.HistBuckets]int64) {
		empty := true
		for _, n := range counts {
			if n != 0 {
				empty = false
				break
			}
		}
		if empty {
			return
		}
		bounds := id.Bounds()
		h := LedgerHist{Le: append([]int64(nil), bounds[:]...), Counts: append([]int64(nil), counts[:]...)}
		if c.Det.Hists == nil {
			c.Det.Hists = map[string]LedgerHist{}
		}
		c.Det.Hists[name] = h
	})
	m.Obs.EachStage(func(name string, d time.Duration) {
		if d == 0 {
			return
		}
		if c.Timing.StagesNS == nil {
			c.Timing.StagesNS = map[string]int64{}
		}
		c.Timing.StagesNS[name] = int64(d)
	})
	c.Det.TopNets = topNets(m.NetStats, topNetsLimit)
	return c
}

// topNets ranks the attribution table by expanded nodes descending, net id
// ascending on ties, and keeps the head.
func topNets(stats []obs.NetStat, limit int) []LedgerNet {
	idx := make([]int, len(stats))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := &stats[idx[a]], &stats[idx[b]]
		if sa.Expanded != sb.Expanded {
			return sa.Expanded > sb.Expanded
		}
		return sa.Net < sb.Net
	})
	if len(idx) > limit {
		idx = idx[:limit]
	}
	out := make([]LedgerNet, 0, len(idx))
	for _, i := range idx {
		st := &stats[i]
		out = append(out, LedgerNet{
			Net:      st.Net,
			Attempts: st.Attempts,
			Searches: st.Searches,
			Expanded: st.Expanded,
			Ripups:   st.RipupTotal(),
			Fails:    st.Fails,
		})
	}
	return out
}

// Write serializes the ledger as indented JSON. encoding/json sorts map
// keys, so for fixed content the bytes are stable.
func (l *Ledger) Write(w io.Writer) error {
	l.Finish()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l)
}

// WriteFile writes the ledger to path, surfacing close errors (a full disk
// at close must not produce a silently truncated baseline).
func (l *Ledger) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadLedger parses a BENCH_*.json file.
func ReadLedger(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if l.Schema != LedgerSchema {
		return nil, fmt.Errorf("%s: ledger schema %d, want %d", path, l.Schema, LedgerSchema)
	}
	return &l, nil
}

// DeterministicBytes serializes only the invariant identity of the ledger:
// rev, and each cell's key plus "det" section. Two runs of the same
// revision and specs must produce identical bytes at any -jobs — the
// determinism tests enforce exactly this.
func (l *Ledger) DeterministicBytes() ([]byte, error) {
	type detCell struct {
		Key string    `json:"key"`
		Det LedgerDet `json:"det"`
	}
	out := struct {
		Schema int       `json:"schema"`
		Rev    string    `json:"rev"`
		Cells  []detCell `json:"cells"`
	}{Schema: l.Schema, Rev: l.Rev}
	for i := range l.Cells {
		out.Cells = append(out.Cells, detCell{Key: l.Cells[i].Key(), Det: l.Cells[i].Det})
	}
	return json.MarshalIndent(out, "", "  ")
}
