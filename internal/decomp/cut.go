package decomp

import (
	"sadproute/internal/geom"
	"sadproute/internal/obs"
)

// DecomposeCut runs the SADP cut-process decomposition oracle on one layer:
//
//  1. core-colored targets become core-mask material;
//  2. assistant cores are synthesized around second-colored targets;
//  3. material closer than d_core is merged with bridge rectangles (the
//     merge technique), iterated to a fixpoint;
//  4. every target boundary is classified as interior / spacer-protected /
//     cut-defined, yielding side overlays, tip overlays and hard overlays;
//  5. opposing cut regions closer than d_cut over a target are reported as
//     cut conflicts.
//
// The returned Result always exists; decomposition failures surface as
// Violations, hard overlays and conflicts rather than errors. It borrows a
// pooled scratch engine for the single call.
func DecomposeCut(ly Layout) *Result {
	e := enginePool.Get().(*Engine)
	defer enginePool.Put(e)
	return e.DecomposeCut(ly, nil)
}

// DecomposeCut runs the cut-process oracle on the engine's scratch state,
// reporting to an observability recorder (decomposition count,
// blob/bridge/assist material counts, overlay fragment count, and
// StageDecompose wall time); a nil rec is the un-instrumented fast path.
// The returned Result shares nothing with the engine.
func (e *Engine) DecomposeCut(ly Layout, rec *obs.Recorder) *Result {
	e.decomposeCut(ly, rec)
	res := e.result(ly)
	res.Materials = append([]Mat(nil), e.mats...)
	return res
}

// Verdict is what the router's per-net check reads from one cut-process
// decomposition.
type Verdict struct {
	// Bad is the layout's badness: cut conflicts plus violations plus
	// hard overlays.
	Bad int
	// Conflicts holds the conflict rects, in Result.Conflicts order.
	Conflicts []geom.Rect
	// Nets holds the implicated nets: each conflict's net, then each hard
	// overlay's net, in Result order, then Result.BadNets.
	Nets []int
}

// CutVerdict is DecomposeCut reduced to the verdict a window check reads,
// on a pooled engine: it writes v, reusing v's slices, and builds no
// Result. The counters it reports to rec are Engine.DecomposeCut's.
func CutVerdict(ly Layout, rec *obs.Recorder, v *Verdict) {
	e := enginePool.Get().(*Engine)
	defer enginePool.Put(e)
	e.CutVerdict(ly, rec, v)
}

// CutVerdict runs the cut-process oracle on the engine's scratch state
// and writes its verdict to v, reusing v's slices: a warm engine and a
// warm v allocate nothing. v shares nothing with the engine.
func (e *Engine) CutVerdict(ly Layout, rec *obs.Recorder, v *Verdict) {
	e.decomposeCut(ly, rec)
	o := &e.out
	v.Bad = len(o.Conflicts) + len(o.Violations) + o.HardOverlays
	v.Conflicts, v.Nets = v.Conflicts[:0], v.Nets[:0]
	for _, cf := range o.Conflicts {
		v.Conflicts = append(v.Conflicts, cf.Rect)
		v.Nets = append(v.Nets, ly.Pats[cf.Pat].Net)
	}
	for _, ov := range o.Overlays {
		if ov.Hard {
			v.Nets = append(v.Nets, ly.Pats[ov.Pat].Net)
		}
	}
	v.Nets = append(v.Nets, o.BadNets...)
}

// decomposeCut runs the cut-process stages of DecomposeCut, leaving the
// material in e.mats and every other output in e.out.
func (e *Engine) decomposeCut(ly Layout, rec *obs.Recorder) {
	defer rec.Span(obs.StageDecompose)()
	res := e.resetOut()
	e.collectTargets(ly, res)

	e.mats = e.mats[:0]
	for _, t := range e.ts {
		if t.color == Core {
			e.mats = append(e.mats, Mat{Kind: MatCoreTarget, Pat: t.pat, Rect: t.rect})
		}
	}
	e.buildAssists(ly)
	e.buildBridges(ly, res)

	e.mix.reset(indexCell(ly))
	for i, m := range e.mats {
		e.mix.add(i, m.Rect)
	}
	for ti := range e.ts {
		e.measureRect(ly, ti, res)
	}
	if rec != nil {
		rec.Inc(obs.CtrDecompositions)
		rec.Add(obs.CtrDecompBlobs, int64(res.Blobs))
		rec.Observe(obs.HistDecompBlobs, int64(res.Blobs))
		var bridges, assists int64
		for _, m := range e.mats {
			switch m.Kind {
			case MatBridge:
				bridges++
			case MatAssist:
				assists++
			}
		}
		rec.Add(obs.CtrDecompBridges, bridges)
		rec.Add(obs.CtrDecompAssists, assists)
		rec.Add(obs.CtrDecompOverlayFrags, int64(len(res.Overlays)))
	}
}

// resetOut empties e.out for the next decomposition, keeping its slices'
// storage, and returns it.
func (e *Engine) resetOut() *Result {
	o := &e.out
	*o = Result{Overlays: o.Overlays[:0], Conflicts: o.Conflicts[:0],
		Violations: o.Violations[:0], BadNets: o.BadNets[:0]}
	return o
}

// result copies e.out into a fresh Result, without Materials.
func (e *Engine) result(ly Layout) *Result {
	o := &e.out
	return &Result{
		SideOverlayNM:    o.SideOverlayNM,
		SideOverlayUnits: float64(o.SideOverlayNM) / float64(ly.Rules.WLine), //lint:allow float reporting-only: the paper quotes overlay in fractional w_line units
		TipOverlayNM:     o.TipOverlayNM,
		HardOverlays:     o.HardOverlays,
		Overlays:         append([]Overlay(nil), o.Overlays...),
		Conflicts:        append([]CutConflict(nil), o.Conflicts...),
		Violations:       append([]string(nil), o.Violations...),
		BadNets:          append([]int(nil), o.BadNets...),
		Blobs:            o.Blobs,
	}
}

// DecomposeLayers runs DecomposeCut on every layer and merges the results
// into per-layer slices plus an aggregate.
func DecomposeLayers(layers []Layout) ([]*Result, Totals) {
	return DecomposeLayersR(layers, nil)
}

// DecomposeLayersR is DecomposeLayers reporting to an observability
// recorder (see Engine.DecomposeCut).
func DecomposeLayersR(layers []Layout, rec *obs.Recorder) ([]*Result, Totals) {
	e := enginePool.Get().(*Engine)
	defer enginePool.Put(e)
	out := make([]*Result, len(layers))
	var tot Totals
	for i, ly := range layers {
		out[i] = e.DecomposeCut(ly, rec)
		tot.Accumulate(out[i])
	}
	return out, tot
}

// Totals aggregates decomposition metrics across layers.
type Totals struct {
	SideOverlayNM    int
	SideOverlayUnits float64 //lint:allow float reporting-only metric, never fed back into geometry
	TipOverlayNM     int
	HardOverlays     int
	Conflicts        int
	Violations       int
}

// Accumulate folds one layer's result into the totals.
func (t *Totals) Accumulate(r *Result) {
	t.SideOverlayNM += r.SideOverlayNM
	t.SideOverlayUnits += r.SideOverlayUnits //lint:allow float reporting-only metric, never fed back into geometry
	t.TipOverlayNM += r.TipOverlayNM
	t.HardOverlays += r.HardOverlays
	t.Conflicts += len(r.Conflicts)
	t.Violations += len(r.Violations)
}
