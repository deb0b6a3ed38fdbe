package obs

import (
	"fmt"
	"sort"
	"strings"
)

// RipCause classifies why a routed net was ripped back up. The names match
// the `cause` field of `ripup` trace events (docs/trace-schema.md) so the
// attribution table and the trace agree without a translation layer.
type RipCause uint8

const (
	// RipOddCycle: committing the net made a flip-graph component odd.
	RipOddCycle RipCause = iota
	// RipInfeasible: the decomposition of the committed net is infeasible.
	RipInfeasible
	// RipWindow: a cut-conflict window check failed and recoloring could
	// not resolve it.
	RipWindow
	// RipBlocker: the net was ripped as a blocker of some other net that
	// exhausted its search (the `for` net in the ripup trace event).
	RipBlocker
	// RipRepair: the terminal repair pass ripped the net to clear a
	// remaining hard conflict.
	RipRepair

	numRipCauses
)

var ripCauseNames = [numRipCauses]string{
	RipOddCycle:   "odd_cycle",
	RipInfeasible: "infeasible",
	RipWindow:     "window",
	RipBlocker:    "blocker",
	RipRepair:     "repair",
}

func (c RipCause) String() string {
	if int(c) < len(ripCauseNames) {
		return ripCauseNames[c]
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// NumRipCauses is the number of distinct rip-up causes (the length of
// NetStat.Ripups).
const NumRipCauses = int(numRipCauses)

// NetStat is the accumulated work attribution for one net, keyed by its
// canonical (input-order) id. Every field is driven by the router's
// serial path, so the table is byte-identical at any -jobs setting.
type NetStat struct {
	Net       int   // canonical net id
	Attempts  int64 // routing attempts (search + commit tries) across all episodes
	Searches  int64 // A* searches attributed to the net (incl. blocker probes)
	Expanded  int64 // A* nodes expanded by those searches
	Ripups    [NumRipCauses]int64
	WinChecks int64 // cut-conflict windows checked after commits of this net
	WinFailed int64 // window checks that ended in ripping this net
	Fails     int64 // terminal failures (no path / rip-up budget / repair drop)
}

// RipupTotal sums rip-ups over all causes.
func (n *NetStat) RipupTotal() int64 {
	var t int64
	for _, v := range n.Ripups {
		t += v
	}
	return t
}

// netStat returns the stat row for net id, creating it on first touch.
// Callers hold r.netMu.
func (r *Recorder) netStat(net int) *NetStat {
	if r.nets == nil {
		r.nets = make(map[int]*NetStat)
	}
	st := r.nets[net]
	if st == nil {
		st = &NetStat{Net: net}
		r.nets[net] = st
	}
	return st
}

// NetAttempt records one routing attempt for a net. Nil-safe no-op, like
// every Recorder method; the enabled path takes a mutex because net
// attribution events are per-attempt, not per-node — orders of magnitude
// rarer than counter increments.
func (r *Recorder) NetAttempt(net int) {
	if r == nil {
		return
	}
	r.netMu.Lock()
	r.netStat(net).Attempts++
	r.netMu.Unlock()
}

// NetSearch attributes one A* search and its expanded-node count to a net.
func (r *Recorder) NetSearch(net int, expanded int64) {
	if r == nil {
		return
	}
	r.netMu.Lock()
	st := r.netStat(net)
	st.Searches++
	st.Expanded += expanded
	r.netMu.Unlock()
}

// NetRipup records one rip-up of a net with its cause.
func (r *Recorder) NetRipup(net int, cause RipCause) {
	if r == nil {
		return
	}
	r.netMu.Lock()
	r.netStat(net).Ripups[cause]++
	r.netMu.Unlock()
}

// NetWindowCheck records one cut-conflict window check run after a commit
// of the net.
func (r *Recorder) NetWindowCheck(net int) {
	if r == nil {
		return
	}
	r.netMu.Lock()
	r.netStat(net).WinChecks++
	r.netMu.Unlock()
}

// NetWindowFail records a window check that ended by ripping the net.
func (r *Recorder) NetWindowFail(net int) {
	if r == nil {
		return
	}
	r.netMu.Lock()
	r.netStat(net).WinFailed++
	r.netMu.Unlock()
}

// NetFail records a terminal routing failure for the net.
func (r *Recorder) NetFail(net int) {
	if r == nil {
		return
	}
	r.netMu.Lock()
	r.netStat(net).Fails++
	r.netMu.Unlock()
}

// NetStats returns a copy of the attribution table sorted by canonical net
// id — the emission order every consumer (ledger, tracetool, dumps) relies
// on for byte-identical output.
func (r *Recorder) NetStats() []NetStat {
	if r == nil {
		return nil
	}
	r.netMu.Lock()
	out := make([]NetStat, 0, len(r.nets))
	for _, st := range r.nets {
		out = append(out, *st)
	}
	r.netMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Net < out[j].Net })
	return out
}

// NetStatsString renders the attribution table one net per line in
// canonical order, for determinism dumps and -netstats output.
func NetStatsString(stats []NetStat) string {
	var b strings.Builder
	for i := range stats {
		st := &stats[i]
		fmt.Fprintf(&b, "net %4d attempts %3d searches %3d expanded %7d fails %d windows %d/%d rips",
			st.Net, st.Attempts, st.Searches, st.Expanded, st.Fails, st.WinFailed, st.WinChecks)
		for c, v := range st.Ripups {
			if v != 0 {
				fmt.Fprintf(&b, " %s:%d", RipCause(c), v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
