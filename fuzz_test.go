package sadp

import (
	"reflect"
	"slices"
	"testing"

	"sadproute/internal/drc"
	"sadproute/internal/grid"
)

// fuzzSpec decodes arbitrary bytes into a small benchmark shape: 1–30
// nets on 12–28 tracks and 2–3 layers, with 1–3 pin candidates and up to 3
// blockages. The decoding is total: every byte string yields a routable
// instance.
func fuzzSpec(data []byte) Spec {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	return Spec{
		Name:          "fuzz",
		Nets:          1 + next()%30,
		Tracks:        12 + next()%17,
		Layers:        2 + next()%2,
		Seed:          int64(next()),
		PinCandidates: 1 + next()%3,
		AvgHPWL:       3 + next()%5,
		Blockages:     next() % 4,
	}
}

// FuzzScheduleCommitOrder checks the router's commit contract from the
// outside on fuzzed benchmark shapes. Nets commit one at a time in
// canonical order, so the routed result is a pure function of the input:
// a second run in the same process, on oracle engines the first run
// returned to the pool, matches the first exactly (totals, paths, colors,
// per-net attribution in canonical net order); and no two nets' committed
// paths ever share a grid cell. The decoding is total — every byte string
// yields a routable instance small enough to route twice per input.
func FuzzScheduleCommitOrder(f *testing.F) {
	f.Add([]byte{40, 18, 7, 1, 5, 2, 4})
	f.Add([]byte{12, 12, 3, 2, 3, 0, 2})
	f.Add([]byte{90, 28, 11, 3, 6, 3, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		nl := Generate(fuzzSpec(data))
		ds := Node10nm()

		rec := NewRecorder()
		opt := Defaults()
		opt.Obs = rec
		first := Route(nl, ds, opt)

		rec2 := NewRecorder()
		opt.Obs = rec2
		second := Route(nl, ds, opt)

		if second.Routed != first.Routed || second.Failed != first.Failed ||
			second.WirelengthCells != first.WirelengthCells || second.Vias != first.Vias {
			t.Fatalf("totals diverge: first routed=%d failed=%d wl=%d vias=%d, second routed=%d failed=%d wl=%d vias=%d",
				first.Routed, first.Failed, first.WirelengthCells, first.Vias,
				second.Routed, second.Failed, second.WirelengthCells, second.Vias)
		}
		if !reflect.DeepEqual(second.Paths, first.Paths) {
			t.Fatal("paths diverge between runs of the same input")
		}
		if !reflect.DeepEqual(second.Colors, first.Colors) {
			t.Fatal("colors diverge between runs of the same input")
		}
		stats := rec.NetStats()
		if !reflect.DeepEqual(rec2.NetStats(), stats) {
			t.Fatal("per-net attribution (attempts/rip-ups/fails) diverges between runs")
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

// FuzzRouteGuarantee checks the paper's Problem 1 guarantees end to end on
// fuzzed benchmark shapes, through the independent verifier: every net
// ends routed or failed; every routed path is a unit-step chain from a
// candidate cell of its first pin to one of its second; the oracle finds
// no cut conflict, hard overlay or violation; and internal/drc, given the
// oracle's material, re-derives the oracle's measurements layer by layer
// and finds the design clean.
func FuzzRouteGuarantee(f *testing.F) {
	f.Add([]byte{40, 18, 7, 1, 5, 2, 4})
	f.Add([]byte{12, 12, 3, 2, 3, 0, 2})
	f.Add([]byte{90, 28, 11, 3, 6, 3, 9})
	f.Add([]byte{29, 4, 0, 35, 0, 1, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		nl := Generate(fuzzSpec(data))
		ds := Node10nm()
		res := Route(nl, ds, Defaults())
		if res.Routed+res.Failed != len(nl.Nets) || len(res.Paths) != res.Routed {
			t.Fatalf("%d routed + %d failed of %d nets, %d paths", res.Routed, res.Failed, len(nl.Nets), len(res.Paths))
		}
		for id, path := range res.Paths {
			if len(path) == 0 || !slices.Contains(nl.Nets[id].A.Candidates, path[0]) ||
				!slices.Contains(nl.Nets[id].B.Candidates, path[len(path)-1]) {
				t.Fatalf("net %d: path does not join candidates of its two pins", id)
			}
			for i := 1; i < len(path); i++ {
				a, b := path[i-1], path[i]
				if abs(a.X-b.X)+abs(a.Y-b.Y)+abs(a.L-b.L) != 1 {
					t.Fatalf("net %d: step %d from %v to %v is not a unit step", id, i, a, b)
				}
			}
		}

		layouts := res.Layouts()
		results, tot := Evaluate(res)
		if tot.Conflicts != 0 || tot.HardOverlays != 0 || tot.Violations != 0 {
			t.Fatalf("oracle: %d cut conflicts, %d hard overlays, %d violations", tot.Conflicts, tot.HardOverlays, tot.Violations)
		}
		layers := make([]drc.Layer, len(layouts))
		for l, ly := range layouts {
			layers[l] = drc.FromDecomp(ly, results[l].Materials)
		}
		rep := drc.CheckDesign(layers, ds)
		for l, lr := range rep.Layers {
			r := results[l]
			if lr.SideOverlayNM != r.SideOverlayNM || lr.TipOverlayNM != r.TipOverlayNM ||
				lr.HardOverlays != r.HardOverlays || lr.Conflicts != len(r.Conflicts) ||
				len(lr.Violations) != len(r.Violations) {
				t.Fatalf("layer %d: drc side/tip/hard/conflicts/violations %d/%d/%d/%d/%d, oracle %d/%d/%d/%d/%d", l,
					lr.SideOverlayNM, lr.TipOverlayNM, lr.HardOverlays, lr.Conflicts, len(lr.Violations),
					r.SideOverlayNM, r.TipOverlayNM, r.HardOverlays, len(r.Conflicts), len(r.Violations))
			}
		}
		if !rep.Clean() {
			t.Fatalf("drc report not clean: %+v %v", rep.Layers, rep.ConnErrs)
		}
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
