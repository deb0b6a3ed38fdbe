package scenario

import (
	"testing"

	"sadproute/internal/decomp"
	"sadproute/internal/geom"
	"sadproute/internal/rules"
)

// cellWire builds a straight wire in cell coordinates.
func cellWire(horiz bool, fixed, c0, c1 int) geom.Rect {
	if horiz {
		return geom.Rect{X0: c0, Y0: fixed, X1: c1 + 1, Y1: fixed + 1}
	}
	return geom.Rect{X0: fixed, Y0: c0, X1: fixed + 1, Y1: c1 + 1}
}

// nmRect converts a cell rect to its metal rectangle for the 10 nm node.
func nmRect(r geom.Rect, ds rules.Set) geom.Rect {
	p, w := ds.Pitch(), ds.WLine
	return geom.Rect{
		X0: r.X0 * p, Y0: r.Y0 * p,
		X1: (r.X1-1)*p + w, Y1: (r.Y1-1)*p + w,
	}
}

type canonical struct {
	name     string
	a, b     geom.Rect // cell coords
	wantType string    // "" when no rule expected
}

func canonicals() []canonical {
	return []canonical{
		{"(0,1,par)", cellWire(true, 5, 0, 4), cellWire(true, 6, 0, 4), "1-a"},
		{"(0,2,par)", cellWire(true, 5, 0, 4), cellWire(true, 7, 0, 4), "1-b"},
		{"(1,0,par)", cellWire(true, 5, 0, 4), cellWire(true, 5, 5, 9), "2-a"},
		{"(2,0,par)", cellWire(true, 5, 0, 4), cellWire(true, 5, 6, 10), ""},
		{"(0,1,perp)", cellWire(false, 2, 6, 10), cellWire(true, 5, 0, 4), "2-b"},
		{"(0,2,perp)", cellWire(false, 2, 7, 11), cellWire(true, 5, 0, 4), ""},
		{"(1,1,par)", cellWire(true, 5, 0, 4), cellWire(true, 6, 5, 9), "3-b"},
		{"(1,2,par)", cellWire(true, 5, 0, 4), cellWire(true, 7, 5, 9), "3-a"},
		{"(2,1,par)", cellWire(true, 5, 0, 4), cellWire(true, 6, 6, 10), ""},
		{"(1,1,perp)", cellWire(false, 2, 6, 10), cellWire(true, 5, 3, 7), "3-b"},
		{"(1,2,perp)", cellWire(false, 2, 6, 10), cellWire(true, 4, 3, 7), ""},
	}
}

// TestGoldenAgainstOracle asserts that every scenario profile matches the
// decomposition oracle's verdict on the canonical configurations — the
// machine-checked equivalent of the paper's Table II / Figs. 24-34.
func TestGoldenAgainstOracle(t *testing.T) {
	ds := rules.Node10nm()
	for _, c := range canonicals() {
		prof, ok := Classify(c.a, c.b, ds)
		if (c.wantType != "") != ok {
			t.Errorf("%s: Classify ok=%v, want rule %q", c.name, ok, c.wantType)
			continue
		}
		if !ok {
			// Still verify the oracle sees no side overlay for any coloring.
			for asg := CC; asg <= SS; asg++ {
				res := oracle(c.a, c.b, asg, ds)
				if res.SideOverlayNM != 0 || len(res.Conflicts) != 0 || len(res.Violations) != 0 {
					t.Errorf("%s %v: expected overlay-free scenario, oracle found SO=%d conf=%d viol=%d",
						c.name, asg, res.SideOverlayNM, len(res.Conflicts), len(res.Violations))
				}
			}
			continue
		}
		if prof.Type != c.wantType {
			t.Errorf("%s: type %q, want %q", c.name, prof.Type, c.wantType)
		}
		for asg := CC; asg <= SS; asg++ {
			res := oracle(c.a, c.b, asg, ds)
			badOracle := res.HardOverlays > 0 || len(res.Conflicts) > 0 || len(res.Violations) > 0
			if prof.Forbidden[asg] != badOracle {
				t.Errorf("%s %v: Forbidden=%v but oracle hard=%d conf=%d viol=%d",
					c.name, asg, prof.Forbidden[asg], res.HardOverlays, len(res.Conflicts), len(res.Violations))
			}
			if prof.Cost[asg] != res.SideOverlayNM {
				t.Errorf("%s %v: Cost=%d, oracle side overlay=%d",
					c.name, asg, prof.Cost[asg], res.SideOverlayNM)
			}
			if prof.Conflict[asg] != (len(res.Conflicts) > 0) {
				t.Errorf("%s %v: Conflict=%v, oracle conflicts=%d",
					c.name, asg, prof.Conflict[asg], len(res.Conflicts))
			}
		}
	}
}

func oracle(a, b geom.Rect, asg Assign, ds rules.Set) *decomp.Result {
	ca, cb := asg.Colors()
	ly := decomp.Layout{
		Rules: ds,
		Die:   geom.Rect{X0: -400, Y0: -400, X1: 1000, Y1: 1000},
		Pats: []decomp.Pattern{
			{Net: 0, Color: ca, Rects: []geom.Rect{nmRect(a, ds)}},
			{Net: 1, Color: cb, Rects: []geom.Rect{nmRect(b, ds)}},
		},
	}
	return decomp.DecomposeCut(ly)
}

// TestOrderSymmetry: classifying (b, a) must be the role-swap of (a, b).
func TestOrderSymmetry(t *testing.T) {
	ds := rules.Node10nm()
	for _, c := range canonicals() {
		p1, ok1 := Classify(c.a, c.b, ds)
		p2, ok2 := Classify(c.b, c.a, ds)
		if ok1 != ok2 {
			t.Errorf("%s: ok mismatch %v vs %v", c.name, ok1, ok2)
			continue
		}
		if !ok1 {
			continue
		}
		want := p1.swap()
		if p2.Cost != want.Cost || p2.Forbidden != want.Forbidden || p2.Conflict != want.Conflict {
			t.Errorf("%s: swapped profile mismatch:\n (a,b)=%+v\n (b,a)=%+v", c.name, p1, p2)
		}
	}
}

// TestIndependence: pairs at or beyond d_indep never produce a rule and the
// oracle confirms they are overlay-free for every coloring (Theorem 1).
func TestIndependence(t *testing.T) {
	ds := rules.Node10nm()
	far := []struct {
		name string
		a, b geom.Rect
	}{
		{"3 tracks parallel", cellWire(true, 5, 0, 4), cellWire(true, 8, 0, 4)},
		{"3 tracks collinear", cellWire(true, 5, 0, 4), cellWire(true, 5, 7, 11)},
		{"(2,2) diagonal", cellWire(true, 5, 0, 4), cellWire(true, 7, 6, 10)},
		{"3 tracks perp", cellWire(false, 2, 8, 12), cellWire(true, 5, 0, 4)},
	}
	for _, c := range far {
		if _, ok := Classify(c.a, c.b, ds); ok {
			t.Errorf("%s: expected independent, got a rule", c.name)
		}
		for asg := CC; asg <= SS; asg++ {
			res := oracle(c.a, c.b, asg, ds)
			if res.SideOverlayNM != 0 || len(res.Conflicts) != 0 || len(res.Violations) != 0 {
				t.Errorf("%s %v: oracle SO=%d conf=%d viol=%d, want clean",
					c.name, asg, res.SideOverlayNM, len(res.Conflicts), len(res.Violations))
			}
		}
	}
}

// TestReachBoundsClassify sweeps rect pairs in every relative position
// within a 9-cell margin: Classify accepts none whose second rect misses the
// first rect's reach box, a.Expand(Reach), so a query of that box finds
// every rect the first one can form a scenario with.
func TestReachBoundsClassify(t *testing.T) {
	ds := rules.Node10nm()
	shapes := []geom.Rect{
		{X1: 1, Y1: 1}, {X1: 4, Y1: 1}, {X1: 1, Y1: 4}, {X1: 2, Y1: 1}, {X1: 1, Y1: 2},
	}
	accepted, outside := 0, 0
	for _, a := range shapes {
		reach := a.Expand(Reach)
		for _, sb := range shapes {
			for dy := -9; dy <= 9; dy++ {
				for dx := -9; dx <= 9; dx++ {
					b := sb.Translate(geom.Pt{X: dx, Y: dy})
					_, ok := Classify(a, b, ds)
					if !b.Intersects(reach) {
						outside++
						if ok {
							t.Fatalf("Classify(%v, %v) accepted a pair outside the reach box %v", a, b, reach)
						}
					} else if ok {
						accepted++
					}
				}
			}
		}
	}
	if accepted == 0 || outside == 0 {
		t.Fatalf("sweep accepted %d pairs and placed %d outside the reach box", accepted, outside)
	}
}

// TestOverlapScaling: type 1-a with single-cell overlap is merge-and-cut
// with a w_line overlay on each side — allowed (tip-to-side friendly), while
// two-cell overlap is hard.
func TestOverlapScaling(t *testing.T) {
	ds := rules.Node10nm()
	// Single cell overlap: A cols 0-4 row 5, B cols 4-8 row 6.
	a := cellWire(true, 5, 0, 4)
	b := cellWire(true, 6, 4, 8)
	p, ok := Classify(a, b, ds)
	if !ok || p.Type != "1-a" {
		t.Fatalf("expected 1-a, got %+v ok=%v", p, ok)
	}
	if p.Forbidden[CC] || p.Cost[CC] != 2*ds.WLine {
		t.Errorf("single-cell overlap CC: got cost %d forbidden %v, want %d allowed",
			p.Cost[CC], p.Forbidden[CC], 2*ds.WLine)
	}
	res := oracle(a, b, CC, ds)
	if res.HardOverlays != 0 || res.SideOverlayNM != 2*ds.WLine {
		t.Errorf("oracle single-cell CC: hard=%d SO=%d", res.HardOverlays, res.SideOverlayNM)
	}
	// Two-cell overlap is a hard overlay.
	b2 := cellWire(true, 6, 3, 8)
	p2, _ := Classify(a, b2, ds)
	if !p2.Forbidden[CC] {
		t.Errorf("two-cell overlap CC should be hard")
	}
	res2 := oracle(a, b2, CC, ds)
	if res2.HardOverlays == 0 {
		t.Errorf("oracle two-cell CC: expected hard overlays")
	}
}
