package geom

// AppendSubtract appends r minus s to dst as up to four disjoint
// rectangles and returns the extended slice. The pieces are appended in
// bottom, top, left, right order; empty pieces are omitted.
func (r Rect) AppendSubtract(dst []Rect, s Rect) []Rect {
	if r.Empty() {
		return dst
	}
	x := r.Intersect(s)
	if x.Empty() {
		return append(dst, r)
	}
	if x == r {
		return dst
	}
	if x.Y0 > r.Y0 { // bottom slab
		dst = append(dst, Rect{r.X0, r.Y0, r.X1, x.Y0})
	}
	if x.Y1 < r.Y1 { // top slab
		dst = append(dst, Rect{r.X0, x.Y1, r.X1, r.Y1})
	}
	if x.X0 > r.X0 { // left slab
		dst = append(dst, Rect{r.X0, x.Y0, x.X0, x.Y1})
	}
	if x.X1 < r.X1 { // right slab
		dst = append(dst, Rect{x.X1, x.Y0, r.X1, x.Y1})
	}
	return dst
}
