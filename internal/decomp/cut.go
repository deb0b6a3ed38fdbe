package decomp

import "sadproute/internal/obs"

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
// Violations, hard overlays and conflicts rather than errors.
func DecomposeCut(ly Layout) *Result { return DecomposeCutR(ly, nil) }

// DecomposeCutR is DecomposeCut reporting to an observability recorder
// (decomposition count, blob/bridge/assist material counts, overlay
// fragment count, and StageDecompose wall time). A nil rec is the
// un-instrumented fast path. It borrows a pooled scratch engine for the
// single call.
func DecomposeCutR(ly Layout, rec *obs.Recorder) *Result {
	e := enginePool.Get().(*Engine)
	defer enginePool.Put(e)
	return e.DecomposeCut(ly, rec)
}

// DecomposeCut runs the cut-process oracle on the engine's scratch state.
// The returned Result shares nothing with the engine.
func (e *Engine) DecomposeCut(ly Layout, rec *obs.Recorder) *Result {
	defer rec.Span(obs.StageDecompose)()
	res := &Result{}
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
	res.Materials = append([]Mat(nil), e.mats...)
	res.SideOverlayUnits = float64(res.SideOverlayNM) / float64(ly.Rules.WLine) //lint:allow float reporting-only: the paper quotes overlay in fractional w_line units
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
	return res
}

// DecomposeLayers runs DecomposeCut on every layer and merges the results
// into per-layer slices plus an aggregate.
func DecomposeLayers(layers []Layout) ([]*Result, Totals) {
	return DecomposeLayersR(layers, nil)
}

// DecomposeLayersR is DecomposeLayers reporting to an observability
// recorder (see DecomposeCutR).
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
