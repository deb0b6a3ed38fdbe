package sadp

import (
	"reflect"
	"testing"

	"sadproute/internal/grid"
)

// FuzzScheduleCommitOrder checks the router's commit contract from the
// outside on fuzzed benchmark shapes. Nets commit one at a time in
// canonical order, so the routed result is a pure function of the input:
// a second run — with the decomposition cache toggled by the last input
// byte and Paranoid copies on — matches the default run exactly (totals,
// paths, colors, per-net attribution in canonical net order) and leaves
// every cached Result intact; and no two nets' committed paths ever share
// a grid cell. The decoding is total — every byte string yields a routable
// instance small enough to route twice per input.
func FuzzScheduleCommitOrder(f *testing.F) {
	f.Add([]byte{40, 18, 7, 1, 5, 2, 4})
	f.Add([]byte{12, 12, 3, 2, 3, 0, 2})
	f.Add([]byte{90, 28, 11, 3, 6, 3, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return int(b)
		}
		sp := Spec{
			Name:          "fuzz",
			Nets:          1 + next()%30,
			Tracks:        12 + next()%17,
			Layers:        2 + next()%2,
			Seed:          int64(next()),
			PinCandidates: 1 + next()%3,
			AvgHPWL:       3 + next()%5,
			Blockages:     next() % 4,
		}
		nl := Generate(sp)
		ds := Node10nm()

		rec := NewRecorder()
		opt := Defaults()
		opt.Obs = rec
		first := Route(nl, ds, opt)

		rec2 := NewRecorder()
		opt2 := Defaults()
		opt2.DecompCache = next()%2 == 1
		opt2.DecompParanoid = true
		opt2.Obs = rec2
		second := Route(nl, ds, opt2)

		if err := second.DecompCacheCheck(); err != nil {
			t.Fatalf("cache=%v: %v", opt2.DecompCache, err)
		}
		if second.Routed != first.Routed || second.Failed != first.Failed ||
			second.WirelengthCells != first.WirelengthCells || second.Vias != first.Vias {
			t.Fatalf("cache=%v totals diverge: first routed=%d failed=%d wl=%d vias=%d, second routed=%d failed=%d wl=%d vias=%d",
				opt2.DecompCache, first.Routed, first.Failed, first.WirelengthCells, first.Vias,
				second.Routed, second.Failed, second.WirelengthCells, second.Vias)
		}
		if !reflect.DeepEqual(second.Paths, first.Paths) {
			t.Fatalf("cache=%v paths diverge between runs of the same input", opt2.DecompCache)
		}
		if !reflect.DeepEqual(second.Colors, first.Colors) {
			t.Fatalf("cache=%v colors diverge between runs of the same input", opt2.DecompCache)
		}
		stats := rec.NetStats()
		if !reflect.DeepEqual(rec2.NetStats(), stats) {
			t.Fatalf("cache=%v per-net attribution (attempts/rip-ups/fails) diverges between runs", opt2.DecompCache)
		}
		for i := 1; i < len(stats); i++ {
			if stats[i-1].Net >= stats[i].Net {
				t.Fatalf("per-net attribution out of canonical order: net %d before net %d", stats[i-1].Net, stats[i].Net)
			}
		}

		// No committed path may overlap another net's: cells are exclusive
		// per net (a net may legitimately revisit its own cells around via
		// stacks).
		owner := make(map[grid.Cell]int)
		for id, path := range first.Paths {
			for _, c := range path {
				if prev, taken := owner[c]; taken && prev != id {
					t.Fatalf("nets %d and %d both committed cell %+v", prev, id, c)
				}
				owner[c] = id
			}
		}
	})
}
