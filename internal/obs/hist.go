package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// HistID names one fixed-bucket histogram. Like the counter enum, the set
// is closed: every histogram the tree observes is declared here, bucket
// boundaries are compile-time constants, and observing is one atomic add —
// so histogram snapshots are as deterministic as counters. A histogram
// never records durations or anything wall-clock-derived; it distributes a
// deterministic per-event quantity (nodes expanded, blobs produced, window
// sizes) over fixed buckets.
type HistID uint8

const (
	// A* engine (internal/astar): nodes expanded per search.
	HistAstarExpanded HistID = iota
	// Router (internal/router): attempts consumed per routing episode (one
	// routeNet call; a net ripped as a blocker starts a new episode when it
	// is rerouted). attempts = rip-ups + 1 within the episode.
	HistNetAttempts
	// Cut-conflict window check (internal/router/detect.go): nets inside
	// one checked window, including the net under test.
	HistWindowNets
	// Decomposition oracle (internal/decomp): blobs per decomposition.
	HistDecompBlobs

	numHists
)

// HistBuckets is the bucket count of every histogram: seven bounded
// buckets plus one overflow bucket.
const HistBuckets = 8

var histNames = [numHists]string{
	HistAstarExpanded: "astar.expanded_per_search",
	HistNetAttempts:   "router.attempts_per_episode",
	HistWindowNets:    "window.nets_per_window",
	HistDecompBlobs:   "decomp.blobs_per_decomposition",
}

// histBounds are the inclusive upper bounds of the first HistBuckets-1
// buckets; values above the last bound land in the overflow bucket. The
// bounds are part of the snapshot schema (docs/trace-schema.md) — changing
// them invalidates ledger comparisons, so treat them like a wire format.
var histBounds = [numHists][HistBuckets - 1]int64{
	HistAstarExpanded: {16, 64, 256, 1024, 4096, 16384, 65536},
	HistNetAttempts:   {1, 2, 3, 4, 5, 6, 8},
	HistWindowNets:    {1, 2, 4, 8, 16, 32, 64},
	HistDecompBlobs:   {1, 2, 4, 8, 16, 32, 64},
}

func (h HistID) String() string {
	if int(h) < len(histNames) {
		return histNames[h]
	}
	return fmt.Sprintf("hist(%d)", int(h))
}

// Bounds returns the histogram's inclusive bucket upper bounds (the
// overflow bucket has none).
func (h HistID) Bounds() [HistBuckets - 1]int64 { return histBounds[h] }

// BucketLabel renders bucket i of histogram h ("<=16", ">65536").
func (h HistID) BucketLabel(i int) string {
	if i >= HistBuckets-1 {
		return ">" + strconv.FormatInt(histBounds[h][HistBuckets-2], 10)
	}
	return "<=" + strconv.FormatInt(histBounds[h][i], 10)
}

// bucketOf locates v's bucket by linear scan — seven compares, no search
// structure needed at this size.
func (h HistID) bucketOf(v int64) int {
	for i, b := range histBounds[h] {
		if v <= b {
			return i
		}
	}
	return HistBuckets - 1
}

// Observe adds one observation of v to a histogram. No-op on a nil
// Recorder — one predicted branch, same discipline as Inc/Add.
func (r *Recorder) Observe(h HistID, v int64) {
	if r == nil {
		return
	}
	r.hists[h][h.bucketOf(v)].Add(1)
}

// Hist returns one histogram's bucket counts.
func (s *Snapshot) Hist(h HistID) [HistBuckets]int64 { return s.Hists[h] }

// EachHist calls f for every histogram in declaration order.
func (s *Snapshot) EachHist(f func(id HistID, name string, counts [HistBuckets]int64)) {
	for i := HistID(0); i < numHists; i++ {
		f(i, i.String(), s.Hists[i])
	}
}

// histString renders one histogram line: only non-empty buckets, in bucket
// order, so the line stays short and — being count-only — deterministic.
func histString(h HistID, counts [HistBuckets]int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hist    %-30s", h.String())
	empty := true
	for i, c := range counts {
		if c == 0 {
			continue
		}
		empty = false
		fmt.Fprintf(&b, " %s:%d", h.BucketLabel(i), c)
	}
	if empty {
		b.WriteString(" -")
	}
	return b.String()
}
