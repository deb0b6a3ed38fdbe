package router

import (
	"reflect"
	"sort"
	"testing"

	"sadproute/internal/decomp"
	"sadproute/internal/geom"
	"sadproute/internal/obs"
	"sadproute/internal/rules"
)

// SetMemoCap sets the verdict memo's capacity for the tests in router_test
// and returns a func that restores the production value. Not safe while
// another test routes concurrently.
func SetMemoCap(n int) (restore func()) {
	old := memoCap
	memoCap = n
	return func() { memoCap = old }
}

// memoWire is a horizontal wire of net on track y, n pitches long.
func memoWire(net int, c decomp.Color, y, n int) decomp.Pattern {
	ds := rules.Node10nm()
	p, w := ds.Pitch(), ds.WLine
	return decomp.Pattern{Net: net, Color: c, Rects: []geom.Rect{{X0: 0, Y0: y * p, X1: n*p + w, Y1: y*p + w}}}
}

// memoLayout is a one-layer layout of pats on a small die.
func memoLayout(pats ...decomp.Pattern) decomp.Layout {
	ds := rules.Node10nm()
	p := ds.Pitch()
	return decomp.Layout{Rules: ds, Die: geom.Rect{X0: -200, Y0: -200, X1: 20 * p, Y1: 20 * p}, Pats: pats}
}

// colorings are the four colorings of adjacent wires of nets 3 and 7.
func colorings() []decomp.Layout {
	var out []decomp.Layout
	for _, c := range [][2]decomp.Color{{decomp.Core, decomp.Core}, {decomp.Core, decomp.Second}, {decomp.Second, decomp.Core}, {decomp.Second, decomp.Second}} {
		out = append(out, memoLayout(memoWire(3, c[0], 2, 8), memoWire(7, c[1], 3, 6)))
	}
	return out
}

// memoState is a one-layer router state with only what verdictOf reads.
func memoState() (*state, *obs.Recorder) {
	rec := obs.New()
	return &state{memo: make([]layerMemo, 1), rec: rec}, rec
}

// TestVerdictMemoKeepsPatternOrder: the key is the patterns in the order
// given, so a layout and its pattern permutation are two entries, and
// each verdict names its offenders by net, not by pattern index — an
// index of one layout names the wrong net in a permutation of it.
func TestVerdictMemoKeepsPatternOrder(t *testing.T) {
	// Nets 3 and 7 are adjacent core wires (a hard overlay each); net 9
	// lies far away and is clean.
	ly := memoLayout(memoWire(3, decomp.Core, 2, 8), memoWire(7, decomp.Core, 3, 6), memoWire(9, decomp.Second, 12, 6))
	perm := ly
	perm.Pats = []decomp.Pattern{ly.Pats[2], ly.Pats[0], ly.Pats[1]}
	st, rec := memoState()
	for _, l := range []decomp.Layout{ly, perm, ly, perm} {
		nets := append([]int(nil), st.verdictOf(0, l).nets...)
		sort.Ints(nets)
		if !reflect.DeepEqual(nets, []int{3, 7}) {
			t.Errorf("verdict names nets %v, want [3 7]", nets)
		}
	}
	s := rec.Snapshot()
	if h, m := s.Counter(obs.CtrDecompMemoHits), s.Counter(obs.CtrDecompMemoMisses); h != 2 || m != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2 (a permutation is its own entry)", h, m)
	}
}

// TestVerdictMemoMatchesUncachedOracle: for every coloring of two
// adjacent wires, the verdict a miss stores and a hit returns equals the
// one read off a fresh oracle run — the badness, the conflict rects and
// the set of offending nets — so colorings never alias in the memo.
func TestVerdictMemoMatchesUncachedOracle(t *testing.T) {
	st, rec := memoState()
	lys := colorings()
	for pass := 0; pass < 2; pass++ {
		for i, ly := range lys {
			res := decomp.DecomposeCut(ly)
			want := map[int]bool{}
			var rects []geom.Rect
			for _, cf := range res.Conflicts {
				rects = append(rects, cf.Rect)
				want[ly.Pats[cf.Pat].Net] = true
			}
			for _, ov := range res.Overlays {
				if ov.Hard {
					want[ly.Pats[ov.Pat].Net] = true
				}
			}
			for _, n := range res.BadNets {
				want[n] = true
			}
			v := st.verdictOf(0, ly)
			got := map[int]bool{}
			for _, n := range v.nets {
				got[n] = true
			}
			if bad := len(res.Conflicts) + len(res.Violations) + res.HardOverlays; v.bad != bad {
				t.Errorf("pass %d coloring %d: bad = %d, oracle says %d", pass, i, v.bad, bad)
			}
			if !reflect.DeepEqual(v.conflicts, rects) {
				t.Errorf("pass %d coloring %d: conflicts %v, oracle says %v", pass, i, v.conflicts, rects)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("pass %d coloring %d: nets %v, oracle says %v", pass, i, got, want)
			}
		}
	}
	if v := st.verdictOf(0, lys[0]); v.bad == 0 {
		t.Error("adjacent core wires scored clean: the colorings do not exercise a bad verdict")
	}
	if v := st.verdictOf(0, lys[1]); v.bad != 0 {
		t.Errorf("core beside second scored bad = %d, want a clean verdict", v.bad)
	}
	s := rec.Snapshot()
	if h, m := s.Counter(obs.CtrDecompMemoHits), s.Counter(obs.CtrDecompMemoMisses); h != 6 || m != 4 {
		t.Errorf("hits/misses = %d/%d, want 6/4 (one miss per coloring)", h, m)
	}
}

// TestVerdictMemoEvictionFIFO: at capacity 2 the third layout evicts the
// first, the two youngest still hit, and the evicted one misses again.
func TestVerdictMemoEvictionFIFO(t *testing.T) {
	defer SetMemoCap(2)()
	st, rec := memoState()
	lys := colorings()[:3]
	for _, ly := range lys {
		st.verdictOf(0, ly)
	}
	ctr := func(c obs.CounterID) int64 {
		s := rec.Snapshot()
		return s.Counter(c)
	}
	if n := len(st.memo[0].m); n != 2 {
		t.Fatalf("memo holds %d verdicts, want 2 after eviction", n)
	}
	if got := ctr(obs.CtrDecompMemoEvictions); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	st.verdictOf(0, lys[1])
	st.verdictOf(0, lys[2])
	if got := ctr(obs.CtrDecompMemoHits); got != 2 {
		t.Errorf("young entries: %d hits, want 2", got)
	}
	if got := ctr(obs.CtrDecompMemoMisses); got != 3 {
		t.Errorf("misses = %d, want 3 (no re-miss of young entries)", got)
	}
	st.verdictOf(0, lys[0]) // evicted: must miss again
	if got := ctr(obs.CtrDecompMemoMisses); got != 4 {
		t.Errorf("misses = %d, want 4 after re-requesting the evicted entry", got)
	}
	if n := len(st.memo[0].m); n != 2 {
		t.Errorf("memo holds %d verdicts, want 2", n)
	}
}
