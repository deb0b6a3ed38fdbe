package obs

import (
	"strings"
	"testing"
)

func TestNilRecorderHistNetStatsSafe(t *testing.T) {
	var r *Recorder
	r.Observe(HistAstarExpanded, 100)
	r.NetAttempt(3)
	r.NetSearch(3, 50)
	r.NetRipup(3, RipWindow)
	r.NetWindowCheck(3)
	r.NetWindowFail(3)
	r.NetFail(3)
	if got := r.NetStats(); got != nil {
		t.Fatalf("nil recorder NetStats = %v, want nil", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	// astar bounds: 16,64,256,1024,4096,16384,65536 — hit the first bucket,
	// an exact bound, an interior value, and overflow.
	r.Observe(HistAstarExpanded, 0)
	r.Observe(HistAstarExpanded, 16)
	r.Observe(HistAstarExpanded, 17)
	r.Observe(HistAstarExpanded, 65536)
	r.Observe(HistAstarExpanded, 65537)
	s := r.Snapshot()
	h := s.Hist(HistAstarExpanded)
	want := [HistBuckets]int64{2, 1, 0, 0, 0, 0, 1, 1}
	if h != want {
		t.Fatalf("astar hist = %v, want %v", h, want)
	}
}

func TestHistogramNamesAndLabels(t *testing.T) {
	for i := HistID(0); i < numHists; i++ {
		if i.String() == "" || strings.HasPrefix(i.String(), "hist(") {
			t.Errorf("histogram %d has no name", i)
		}
		if !strings.Contains(i.String(), ".") {
			t.Errorf("histogram %q lacks a family prefix", i.String())
		}
		bounds := i.Bounds()
		for j := 1; j < len(bounds); j++ {
			if bounds[j] <= bounds[j-1] {
				t.Errorf("histogram %q bounds not strictly increasing: %v", i, bounds)
			}
		}
	}
	if got := HistAstarExpanded.BucketLabel(0); got != "<=16" {
		t.Errorf("BucketLabel(0) = %q, want <=16", got)
	}
	if got := HistAstarExpanded.BucketLabel(HistBuckets - 1); got != ">65536" {
		t.Errorf("overflow label = %q, want >65536", got)
	}
	if got := HistID(200).String(); got != "hist(200)" {
		t.Errorf("out-of-range String = %q", got)
	}
}

func TestHistogramInCountersString(t *testing.T) {
	r := New()
	r.Observe(HistDecompBlobs, 3)
	s := r.Snapshot()
	out := s.CountersString()
	if !strings.Contains(out, "decomp.blobs_per_decomposition") {
		t.Fatalf("CountersString missing histogram line:\n%s", out)
	}
	if !strings.Contains(out, "<=4:1") {
		t.Fatalf("CountersString missing bucket count:\n%s", out)
	}
	// Empty histograms render a placeholder, not nothing, so dumps stay
	// fixed-shape.
	if !strings.Contains(out, "window.nets_per_window") {
		t.Fatalf("CountersString missing empty histogram line:\n%s", out)
	}
}

func TestHistogramAccumulate(t *testing.T) {
	a := New()
	b := New()
	a.Observe(HistWindowNets, 2)
	b.Observe(HistWindowNets, 2)
	b.Observe(HistWindowNets, 100)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Accumulate(&sb)
	h := sa.Hist(HistWindowNets)
	if h[1] != 2 || h[HistBuckets-1] != 1 {
		t.Fatalf("accumulated hist = %v", h)
	}
}

func TestEachHist(t *testing.T) {
	r := New()
	r.Observe(HistNetAttempts, 1)
	s := r.Snapshot()
	seen := 0
	s.EachHist(func(id HistID, name string, counts [HistBuckets]int64) {
		seen++
		if id == HistNetAttempts && counts[0] != 1 {
			t.Errorf("EachHist counts for %s = %v", name, counts)
		}
	})
	if seen != int(numHists) {
		t.Fatalf("EachHist visited %d hists, want %d", seen, numHists)
	}
}

func TestNetStatsAttribution(t *testing.T) {
	r := New()
	// Touch nets out of canonical order to prove the sort.
	r.NetAttempt(7)
	r.NetSearch(7, 120)
	r.NetAttempt(2)
	r.NetSearch(2, 40)
	r.NetRipup(2, RipOddCycle)
	r.NetAttempt(2)
	r.NetSearch(2, 55)
	r.NetWindowCheck(2)
	r.NetWindowFail(2)
	r.NetRipup(2, RipWindow)
	r.NetRipup(7, RipBlocker)
	r.NetFail(7)

	stats := r.NetStats()
	if len(stats) != 2 || stats[0].Net != 2 || stats[1].Net != 7 {
		t.Fatalf("NetStats order = %+v, want nets [2 7]", stats)
	}
	n2 := stats[0]
	if n2.Attempts != 2 || n2.Searches != 2 || n2.Expanded != 95 {
		t.Errorf("net 2 work = %+v", n2)
	}
	if n2.Ripups[RipOddCycle] != 1 || n2.Ripups[RipWindow] != 1 || n2.RipupTotal() != 2 {
		t.Errorf("net 2 ripups = %v", n2.Ripups)
	}
	if n2.WinChecks != 1 || n2.WinFailed != 1 || n2.Fails != 0 {
		t.Errorf("net 2 windows/fails = %+v", n2)
	}
	n7 := stats[1]
	if n7.Ripups[RipBlocker] != 1 || n7.Fails != 1 {
		t.Errorf("net 7 = %+v", n7)
	}
}

func TestNetStatsString(t *testing.T) {
	r := New()
	r.NetAttempt(0)
	r.NetRipup(0, RipRepair)
	out := NetStatsString(r.NetStats())
	if !strings.Contains(out, "repair:1") {
		t.Fatalf("NetStatsString missing cause:\n%s", out)
	}
	if strings.Contains(out, "odd_cycle") {
		t.Fatalf("NetStatsString renders zero causes:\n%s", out)
	}
}

func TestRipCauseNames(t *testing.T) {
	want := map[RipCause]string{
		RipOddCycle:   "odd_cycle",
		RipInfeasible: "infeasible",
		RipWindow:     "window",
		RipBlocker:    "blocker",
		RipRepair:     "repair",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("RipCause(%d) = %q, want %q", c, c.String(), name)
		}
	}
	if got := RipCause(99).String(); got != "cause(99)" {
		t.Errorf("out-of-range cause = %q", got)
	}
}
