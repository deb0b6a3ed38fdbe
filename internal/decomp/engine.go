package decomp

import (
	"sync"

	"sadproute/internal/geom"
	"sadproute/internal/interval"
)

// Engine is the oracle's reusable scratch state: target lists, spatial
// indexes, the per-iteration union-find of the merge stage, the interval
// sets of the boundary measurement, and one decomposition's outputs.
// Everything a decomposition computes lives in the engine and is reused
// by the next call; DecomposeCut copies the outputs into a fresh Result,
// and CutVerdict reads only what a window check needs from them.
//
// The zero Engine is ready to use. An Engine is single-goroutine state;
// a caller that decomposes many layouts may hold one and call its
// methods. Results never alias engine scratch, so they outlive the
// engine's next call. The package functions (DecomposeCut and the rest)
// draw engines from a private pool instead.
type Engine struct {
	// out holds one decomposition's overlays, conflicts, violations, bad
	// nets and aggregates; its Materials stay nil (e.mats holds them).
	out Result
	// Targets and their spatial index (collectTargets).
	ts  []tgt
	tix rectIndex
	// Core-mask material and its index (DecomposeCut/DecomposeTrim).
	mats []Mat
	mix  rectIndex
	// Merge-stage scratch (buildBridges): per-iteration connectivity,
	// the indexes of the first iteration's material and of the bridges
	// added since, the links connectivity is built from and the material
	// whose links are stale, geometry snapshot, cross-blob pair list and
	// bridge accumulator.
	comp     dsu
	bix, nix rectIndex
	links    []matLink
	dirty    []bool
	snap     []geom.Rect
	pairs    []matPair
	added    []Mat
	trimRect map[int]geom.Rect
	trimPend map[int][]matPair
	tks      []int
	// One object's candidate lists, each from one index query: targets
	// near a second target (buildAssists) or near a measured target, and
	// material near a measured target (measureRect).
	near  []int
	mnear []int
	// Assist-synthesis scratch (buildAssists/shapeSlab): a slab's pieces
	// and the buffer the next keep-out subtracts them into.
	pieces, spare []geom.Rect
	along         interval.Set
	trial         interval.Set
	// Boundary-measurement scratch (measureRect): per-side overlay sets
	// plus the interior/protection accumulators and the pair-conflict
	// intersection buffer.
	sideOv   [4]interval.Set
	interior interval.Set
	covered  interval.Set
	matTouch interval.Set
	xset     interval.Set
}

// matPair is one cross-blob material pair of a merge iteration.
type matPair struct{ i, j int }

// matLink is a material pair (i < j) closer than d_core; touch marks a
// pair with no positive gap, which is one blob. The engine keeps a full
// layer's links between calls, so the indices are 32-bit.
type matLink struct {
	i, j  int32
	touch bool
}

// enginePool holds the package functions' engines. The router's window
// checks and every evaluation decompose through them, concurrently across
// jobs, so a warm engine saves each call the scratch a cold one grows.
var enginePool = sync.Pool{New: func() any { return &Engine{} }}
