package decomp

// DecomposeTrim runs the SADP trim-process oracle used by the baseline
// routers (the processes of refs. [10] and [11] in the paper).
//
// The trim process has no merge technique and (in the published baseline
// routers) no assistant core patterns, so:
//
//   - two core patterns closer than d_core are a decomposition conflict
//     (the core mask cannot print them and a cut cannot separate a merger);
//   - two second (trim-defined) patterns closer than the mask spacing rule
//     (d_core, the "minimum coloring distance") are a trim conflict — the
//     classic parallel-line-end conflict;
//   - a second-pattern boundary is protected only where a neighboring core
//     pattern's spacer happens to reach it; every other second boundary
//     section is defined directly by the trim mask and is an overlay.
//
// Core-pattern boundaries are mask-defined and never carry overlays.
func DecomposeTrim(ly Layout) *Result {
	e := enginePool.Get().(*Engine)
	defer enginePool.Put(e)
	return e.DecomposeTrim(ly)
}

// DecomposeTrim runs the trim-process oracle on the engine's scratch
// state; the returned Result shares nothing with the engine.
func (e *Engine) DecomposeTrim(ly Layout) *Result {
	res := &Result{}
	e.collectTargets(ly, res)
	ts, tix := e.ts, &e.tix

	// Core targets are the only material: no assists, no bridges.
	e.mats = e.mats[:0]
	for _, t := range ts {
		if t.color == Core {
			e.mats = append(e.mats, Mat{Kind: MatCoreTarget, Pat: t.pat, Rect: t.rect})
		}
	}
	e.mix.reset(indexCell(ly))
	for i, m := range e.mats {
		e.mix.add(i, m.Rect)
	}

	// Same-mask spacing conflicts, deduplicated per pattern pair.
	type pair struct{ a, b int }
	seen := make(map[pair]bool)
	for i := range ts {
		a := ts[i]
		tix.query(a.rect.Expand(ly.Rules.DCore), func(j int) {
			if j <= i {
				return
			}
			b := ts[j]
			if a.color != b.color {
				return
			}
			// Same-polygon slots conflict too: trim has no merge technique.
			gap, ok := gapLinf(a.rect, b.rect)
			if !ok || gap >= ly.Rules.DCore {
				return
			}
			key := pair{mini(a.pat, b.pat), maxi(a.pat, b.pat)}
			if seen[key] {
				return
			}
			seen[key] = true
			res.Conflicts = append(res.Conflicts, CutConflict{
				Pat: a.pat, Rect: bridgeRect(a.rect, b.rect),
				Lo: 0, Hi: 0,
			})
		})
	}

	// Overlays: second-pattern boundaries only. Opposite-side trim edges are
	// not d_cut conflicts (the trim mask covers, rather than flanks, the
	// pattern), so conflicts found by measureRect are discarded.
	for ti := range ts {
		if ts[ti].color != Second {
			continue
		}
		nc := len(res.Conflicts)
		e.measureRect(ly, ti, res)
		res.Conflicts = res.Conflicts[:nc]
	}
	res.Materials = append([]Mat(nil), e.mats...)
	res.SideOverlayUnits = float64(res.SideOverlayNM) / float64(ly.Rules.WLine) //lint:allow float reporting-only: the paper quotes overlay in fractional w_line units
	return res
}

// DecomposeTrimLayers runs DecomposeTrim on every layer, on one pooled
// engine.
func DecomposeTrimLayers(layers []Layout) ([]*Result, Totals) {
	e := enginePool.Get().(*Engine)
	defer enginePool.Put(e)
	out := make([]*Result, len(layers))
	var tot Totals
	for i, ly := range layers {
		out[i] = e.DecomposeTrim(ly)
		tot.Accumulate(out[i])
	}
	return out, tot
}
