package geom

import (
	"cmp"
	"slices"
)

// FragmentCells decomposes a set of unit cells (e.g. the grid cells occupied
// by one net on one layer) into maximal straight run rectangles, the
// fragmentation step of the paper's Theorem 3: every rectilinear polygon is
// fragmented into rectangles before potential-overlay-scenario
// classification.
//
// The decomposition emits every maximal horizontal run of length >= 2 and
// every maximal vertical run of length >= 2 as a 1-track-wide Rect (in cell
// coordinates, half-open), plus a 1x1 Rect for each isolated cell that
// belongs to no run. A corner cell of an L-shaped path is part of both its
// horizontal and its vertical run; the resulting overlap is harmless for
// pairwise scenario classification because both rects belong to the same
// polygon.
//
// FragmentCells appends the rects to dst, sorted by (Y0, X0, X1, Y1), and
// returns the extended slice. It sorts cells in place by (Y, X) and
// counts a repeated cell once; it allocates only to grow dst.
func FragmentCells(dst []Rect, cells []Pt) []Rect {
	slices.SortFunc(cells, func(a, b Pt) int {
		if a.Y != b.Y {
			return cmp.Compare(a.Y, b.Y)
		}
		return cmp.Compare(a.X, b.X)
	})
	cells = slices.Compact(cells)
	n := len(cells)
	base := len(dst)
	for i, c := range cells {
		left := i > 0 && cells[i-1] == Pt{c.X - 1, c.Y}
		right := i+1 < n && cells[i+1] == Pt{c.X + 1, c.Y}
		down := has(cells[:i], Pt{c.X, c.Y - 1})
		up := has(cells[i+1:], Pt{c.X, c.Y + 1})
		switch {
		case !left && right: // a maximal horizontal run starts here
			j := i + 1
			for j+1 < n && cells[j+1] == (Pt{cells[j].X + 1, c.Y}) {
				j++
			}
			dst = append(dst, Rect{c.X, c.Y, cells[j].X + 1, c.Y + 1})
		case !left && !right && !down && !up: // isolated
			dst = append(dst, Rect{c.X, c.Y, c.X + 1, c.Y + 1})
		}
		if !down && up { // a maximal vertical run starts here
			y1, j := c.Y+2, i
			for {
				j += 1 + search(cells[j+1:], Pt{c.X, y1})
				if j == n || cells[j] != (Pt{c.X, y1}) {
					break
				}
				y1++
			}
			dst = append(dst, Rect{c.X, c.Y, c.X + 1, y1})
		}
	}
	slices.SortFunc(dst[base:], func(a, b Rect) int {
		switch {
		case a.Y0 != b.Y0:
			return cmp.Compare(a.Y0, b.Y0)
		case a.X0 != b.X0:
			return cmp.Compare(a.X0, b.X0)
		case a.X1 != b.X1:
			return cmp.Compare(a.X1, b.X1)
		}
		return cmp.Compare(a.Y1, b.Y1)
	})
	return dst
}

// search returns the index of the first of cells, sorted by (Y, X), at or
// after p in that order.
func search(cells []Pt, p Pt) int {
	lo, hi := 0, len(cells)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c := cells[m]; c.Y < p.Y || c.Y == p.Y && c.X < p.X {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// has reports whether cells, sorted by (Y, X), hold p.
func has(cells []Pt, p Pt) bool {
	i := search(cells, p)
	return i < len(cells) && cells[i] == p
}

// CellsOfRect expands a cell-coordinate Rect back into its unit cells.
func CellsOfRect(r Rect) []Pt {
	cells := make([]Pt, 0, r.Area())
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			cells = append(cells, Pt{x, y})
		}
	}
	return cells
}
