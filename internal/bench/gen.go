// Package bench generates synthetic benchmark netlists with the scale and
// density profile of the paper's Test1-Test10 designs (proprietary in the
// original; see DESIGN.md for the substitution argument) and provides the
// harness that routes them and measures the paper's evaluation metrics —
// the machinery behind the evaluation section (Section IV, Tables III/IV
// and Fig. 20). The parallel Harness fans (benchmark × algorithm) cells
// across a worker pool and merges results in canonical order, so tables
// and traces are identical to the serial run's.
package bench

import (
	"fmt"
	"math/rand" //lint:allow wallclock every generator is seeded from Spec.Seed; no global/unseeded source

	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/netlist"
)

// Spec parameterizes one synthetic benchmark.
type Spec struct {
	Name          string
	Nets          int
	Tracks        int // die width/height in routing tracks (pitch 40 nm)
	Layers        int
	Seed          int64
	PinCandidates int // 1 = fixed pins; >1 = multiple pin candidate locations
	AvgHPWL       int // mean pin-to-pin half-perimeter in tracks
	Blockages     int
	// MacroBlockages adds that many macro-scale blockages (edge Tracks/8
	// to Tracks/4) before the standard small ones — the "huge" family's
	// obstacle profile. The field is rng-gated: at zero (every spec
	// predating it) the generator draws nothing for it, so previously
	// published seeds keep producing byte-identical netlists (see the
	// determinism contract in cmd/benchgen).
	MacroBlockages int
}

// SizeUM returns the die edge in micrometers at the 10 nm node (40 nm
// pitch).
func (s Spec) SizeUM() float64 { return float64(s.Tracks) * 0.04 }

// PaperSpecs returns the five benchmark sizes of the paper's Tables III/IV:
// 1.5k/2.7k/5.5k/12k/28k nets on 6.8/9.6/16/24/36 um dies with three
// routing layers. fixedPins selects the Test1-5 family (Table III); with
// multi=3 candidate locations per pin the Test6-10 family (Table IV).
func PaperSpecs(fixedPins bool) []Spec {
	type row struct {
		nets, tracks int
	}
	rows := []row{{1500, 170}, {2700, 240}, {5500, 400}, {12000, 600}, {28000, 900}}
	cands, base, seedBase := 1, 1, int64(1000)
	if !fixedPins {
		cands, base, seedBase = 3, 6, 2000
	}
	out := make([]Spec, len(rows))
	for i, r := range rows {
		out[i] = Spec{
			Name:          fmt.Sprintf("Test%d", base+i),
			Nets:          r.nets,
			Tracks:        r.tracks,
			Layers:        3,
			Seed:          seedBase + int64(i),
			PinCandidates: cands,
			AvgHPWL:       r.tracks / 10,
			Blockages:     r.nets / 150,
		}
	}
	return out
}

// HugeSpecs returns the corridor-routing "huge" family: dies larger than
// the paper's biggest, a few dozen long nets (sparse congestion, two
// orders of magnitude fewer nets per track than Test1-10), and full-stack
// macro slabs whose faces force real detours. The profile is what
// router.Options.SparseSearch is for: dense A* floods slab pockets —
// growing with die area until it exhausts its expansion budget — while
// the corridor graph crosses them in a handful of interval-sized hops.
// Parameters (including seeds) are pinned to instances every net of which
// the sparse engine routes to 100%.
func HugeSpecs() []Spec {
	type row struct {
		nets, tracks, avg, mb, bl int
		seed                      int64
	}
	rows := []row{
		{60, 700, 250, 8, 6, 3001},
		{70, 1200, 350, 10, 8, 3011},
		{80, 1400, 450, 10, 8, 3007},
	}
	out := make([]Spec, len(rows))
	for i, r := range rows {
		out[i] = Spec{
			Name:           fmt.Sprintf("Huge%d", i+1),
			Nets:           r.nets,
			Tracks:         r.tracks,
			Layers:         3,
			Seed:           r.seed,
			PinCandidates:  1,
			AvgHPWL:        r.avg,
			Blockages:      r.bl,
			MacroBlockages: r.mb,
		}
	}
	return out
}

// Generate builds a reproducible random netlist for the spec: uniformly
// placed two-pin nets with bounded half-perimeter, globally unique pin
// cells, and a few macro-like blockages. On a die with no room left for
// another net's pins the netlist holds fewer than s.Nets nets.
func Generate(s Spec) *netlist.Netlist {
	rng := rand.New(rand.NewSource(s.Seed))
	nl := &netlist.Netlist{
		Name:   s.Name,
		W:      s.Tracks,
		H:      s.Tracks,
		Layers: s.Layers,
	}

	blocked := make(map[geom.Pt]bool)
	var shadows []geom.Rect
	place := func(l int, r geom.Rect) {
		nl.Blockages = append(nl.Blockages, netlist.Blockage{L: l, Rect: r})
		if l == 0 {
			for yy := r.Y0; yy < r.Y1; yy++ {
				for xx := r.X0; xx < r.X1; xx++ {
					blocked[geom.Pt{X: xx, Y: yy}] = true
				}
			}
		}
		shadows = append(shadows, r)
	}
	addBlockage := func(w, h int) {
		x := rng.Intn(s.Tracks - w)
		y := rng.Intn(s.Tracks - h)
		place(rng.Intn(s.Layers), geom.Rect{X0: x, Y0: y, X1: x + w, Y1: y + h})
	}
	// Macros keep a channel of at least Tracks/8 between each other and the
	// die edge. Narrow gaps between macro walls saturate after a handful of
	// committed nets and strand later long nets with no ripup small enough
	// to help; wide channels keep the huge family's routability near 100%,
	// which is what makes it a fair dense-vs-corridor perf benchmark.
	macroOK := func(r geom.Rect) bool {
		gap := s.Tracks / 8
		if r.X0 < gap || r.Y0 < gap || r.X1 > s.Tracks-gap || r.Y1 > s.Tracks-gap {
			return false
		}
		for _, o := range shadows {
			if r.X0 < o.X1+gap && o.X0 < r.X1+gap && r.Y0 < o.Y1+gap && o.Y0 < r.Y1+gap {
				return false
			}
		}
		return true
	}
	// Hard macros block every routing layer (RAM/IP blocks own their full
	// stack), so detours around them are real detours, not layer hops.
	addMacro := func(w, h int) {
		var r geom.Rect
		for try := 0; ; try++ {
			x := rng.Intn(s.Tracks - w)
			y := rng.Intn(s.Tracks - h)
			r = geom.Rect{X0: x, Y0: y, X1: x + w, Y1: y + h}
			if macroOK(r) || try == 63 {
				break
			}
		}
		for l := 0; l < s.Layers; l++ {
			place(l, r)
		}
	}
	// The huge family keeps pins out of every blockage's projection on any
	// layer: a pin under a macro shadow may be reachable only through its
	// own layer and the surrounding pin/blockage clutter then strands it.
	// Near-full routability is what makes the family a fair perf benchmark.
	// Gated on MacroBlockages so pre-existing specs keep their exact pin
	// draws (see the determinism contract in cmd/benchgen).
	shadowed := func(x, y int) bool {
		if s.MacroBlockages == 0 {
			return false
		}
		for _, r := range shadows {
			if x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1 {
				return true
			}
		}
		return false
	}
	// Macro slabs: elongated (RAM-like), random orientation. The slab shape
	// is what makes dense search expensive on the huge family — a straight
	// pin-to-pin line hitting a slab mid-face floods the A* frontier along
	// the whole face before the detour pays off.
	for i := 0; i < s.MacroBlockages; i++ {
		long := s.Tracks/4 + rng.Intn(s.Tracks/4+1)
		short := s.Tracks/24 + rng.Intn(s.Tracks/24+1)
		if rng.Intn(2) == 0 {
			addMacro(long, short)
		} else {
			addMacro(short, long)
		}
	}
	for i := 0; i < s.Blockages; i++ {
		addBlockage(2+rng.Intn(s.Tracks/20+1), 2+rng.Intn(s.Tracks/20+1))
	}

	used := make(map[geom.Pt]bool)
	free := func(x, y int) bool {
		if x < 0 || x >= s.Tracks || y < 0 || y >= s.Tracks {
			return false
		}
		p := geom.Pt{X: x, Y: y}
		return !used[p] && !blocked[p] && !shadowed(x, y)
	}
	take := func(x, y int) grid.Cell {
		used[geom.Pt{X: x, Y: y}] = true
		return grid.Cell{X: x, Y: y, L: 0}
	}

	// Pin candidates cluster within a small neighborhood of the primary
	// location, mimicking multiple legal pin access points.
	makePin := func(x, y int) (netlist.Pin, bool) {
		if !free(x, y) {
			return netlist.Pin{}, false
		}
		pin := netlist.Pin{Candidates: []grid.Cell{take(x, y)}}
		for len(pin.Candidates) < s.PinCandidates {
			dx, dy := rng.Intn(5)-2, rng.Intn(5)-2
			nx, ny := x+dx, y+dy
			if !free(nx, ny) {
				// Dense corners may not fit all candidates; accept fewer
				// after a bounded number of tries.
				if rng.Intn(8) == 0 {
					break
				}
				continue
			}
			pin.Candidates = append(pin.Candidates, take(nx, ny))
		}
		return pin, true
	}

	// placeable reports whether two free cells lie at a half-perimeter
	// the draw below can produce. Free cells only get fewer, so without
	// such a pair no further net fits on the die.
	placeable := func() bool {
		reach := 2*s.AvgHPWL + 1
		for ay := 0; ay < s.Tracks; ay++ {
			for ax := 0; ax < s.Tracks; ax++ {
				if !free(ax, ay) {
					continue
				}
				for dy := -reach; dy <= reach; dy++ {
					rx := reach - max(dy, -dy)
					for dx := -rx; dx <= rx; dx++ {
						if max(dx, -dx)+max(dy, -dy) >= 2 && free(ax+dx, ay+dy) {
							return true
						}
					}
				}
			}
		}
		return false
	}

	// A die too small for s.Nets nets ends the draw once no net fits: the
	// check runs after every 4096 draws in a row that placed nothing, and
	// draws no random number.
	for misses := 0; len(nl.Nets) < s.Nets; misses++ {
		if misses > 0 && misses%4096 == 0 && !placeable() {
			break
		}
		ax, ay := rng.Intn(s.Tracks), rng.Intn(s.Tracks)
		// Half-perimeter between 2 and ~2*AvgHPWL, uniformly.
		hp := 2 + rng.Intn(2*s.AvgHPWL)
		dx := rng.Intn(hp + 1)
		dy := hp - dx
		if rng.Intn(2) == 0 {
			dx = -dx
		}
		if rng.Intn(2) == 0 {
			dy = -dy
		}
		bx, by := ax+dx, ay+dy
		if !free(ax, ay) || !free(bx, by) || (ax == bx && ay == by) {
			continue
		}
		a, _ := makePin(ax, ay)
		b, ok := makePin(bx, by)
		if !ok {
			continue
		}
		nl.Nets = append(nl.Nets, netlist.Net{
			ID:   len(nl.Nets),
			Name: fmt.Sprintf("n%d", len(nl.Nets)),
			A:    a,
			B:    b,
		})
		misses = -1
	}
	return nl
}
