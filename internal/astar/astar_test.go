package astar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/rules"
)

func mk(w, h, l int) *grid.Grid { return grid.New(w, h, l, rules.Node10nm()) }

func TestStraightLine(t *testing.T) {
	g := mk(10, 10, 1)
	e := New(g)
	path, out := e.Search(0, []grid.Cell{{X: 0, Y: 5}}, []grid.Cell{{X: 9, Y: 5}}, Config{WL: 1, Via: 1})
	if out != Found || len(path) != 10 {
		t.Fatalf("outcome %v, len=%d", out, len(path))
	}
}

func TestAvoidsBlockage(t *testing.T) {
	g := mk(10, 10, 1)
	g.Block(0, geom.Rect{X0: 5, Y0: 0, X1: 6, Y1: 9}) // wall with a gap at y=9
	e := New(g)
	path, out := e.Search(0, []grid.Cell{{X: 0, Y: 0}}, []grid.Cell{{X: 9, Y: 0}}, Config{WL: 1, Via: 1})
	if out != Found {
		t.Fatalf("outcome %v, must route around", out)
	}
	for _, c := range path {
		if g.At(c) == grid.Blocked {
			t.Fatalf("path crosses blockage at %v", c)
		}
	}
	if len(path) < 10+2*9 {
		t.Fatalf("detour too short: %d", len(path))
	}
}

func TestNoPathWhenWalled(t *testing.T) {
	g := mk(10, 10, 1)
	g.Block(0, geom.Rect{X0: 5, Y0: 0, X1: 6, Y1: 10})
	e := New(g)
	if _, out := e.Search(0, []grid.Cell{{X: 0, Y: 0}}, []grid.Cell{{X: 9, Y: 0}}, Config{WL: 1, Via: 1}); out != NoPath {
		t.Fatalf("outcome %v, want NoPath", out)
	}
	// A budget smaller than the flood of the source's side gives up
	// instead: Aborted, not NoPath.
	if _, out := e.Search(0, []grid.Cell{{X: 0, Y: 0}}, []grid.Cell{{X: 9, Y: 0}}, Config{WL: 1, Via: 1, MaxExpand: 10}); out != Aborted {
		t.Fatalf("outcome %v under a 10-expansion budget, want Aborted", out)
	}
}

func TestUsesViasAcrossLayers(t *testing.T) {
	g := mk(10, 10, 2)
	g.Block(0, geom.Rect{X0: 5, Y0: 0, X1: 6, Y1: 10}) // full wall on layer 0
	e := New(g)
	path, out := e.Search(0, []grid.Cell{{X: 0, Y: 0}}, []grid.Cell{{X: 9, Y: 0}}, Config{WL: 1, Via: 1})
	if out != Found {
		t.Fatalf("outcome %v, layer 1 should bypass the wall", out)
	}
	sawL1 := false
	for _, c := range path {
		if c.L == 1 {
			sawL1 = true
		}
	}
	if !sawL1 {
		t.Fatal("path never used layer 1")
	}
}

func TestMultiSourceTarget(t *testing.T) {
	g := mk(20, 20, 1)
	e := New(g)
	sources := []grid.Cell{{X: 0, Y: 0}, {X: 0, Y: 19}}
	targets := []grid.Cell{{X: 19, Y: 19}, {X: 2, Y: 0}}
	path, out := e.Search(0, sources, targets, Config{WL: 1, Via: 1})
	if out != Found {
		t.Fatalf("outcome %v", out)
	}
	// Closest pair is (0,0)->(2,0): 3 cells.
	if len(path) != 3 {
		t.Fatalf("should pick the closest candidate pair, got len %d", len(path))
	}
}

func TestSoftOccupied(t *testing.T) {
	g := mk(10, 3, 1)
	// Net 7 occupies a full vertical wall.
	for y := 0; y < 3; y++ {
		g.Occupy(grid.Cell{X: 5, Y: y}, 7)
	}
	e := New(g)
	if _, out := e.Search(0, []grid.Cell{{X: 0, Y: 1}}, []grid.Cell{{X: 9, Y: 1}}, Config{WL: 1, Via: 1}); out != NoPath {
		t.Fatalf("hard search: outcome %v, want NoPath", out)
	}
	path, out := e.Search(0, []grid.Cell{{X: 0, Y: 1}}, []grid.Cell{{X: 9, Y: 1}}, Config{WL: 1, Via: 1, SoftOccupied: 100})
	if out != Found {
		t.Fatalf("soft search: outcome %v, must pass through", out)
	}
	crossed := false
	for _, c := range path {
		if g.At(c) == 7 {
			crossed = true
		}
	}
	if !crossed {
		t.Fatal("soft path should cross the occupied wall")
	}
}

// TestQuickOptimalVsDijkstra: A* path cost must equal a reference BFS
// (uniform costs) on random blocked grids.
func TestQuickOptimalVsDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := mk(12, 12, 2)
		for i := 0; i < 25; i++ {
			g.Block(rng.Intn(2), geom.Rect{
				X0: rng.Intn(12), Y0: rng.Intn(12),
				X1: rng.Intn(12) + 1, Y1: rng.Intn(12) + 1,
			})
		}
		src := grid.Cell{X: 0, Y: 0, L: 0}
		dst := grid.Cell{X: 11, Y: 11, L: 0}
		if g.At(src) == grid.Blocked || g.At(dst) == grid.Blocked {
			return true
		}
		e := New(g)
		path, out := e.Search(0, []grid.Cell{src}, []grid.Cell{dst}, Config{WL: 1, Via: 1})
		ok := out == Found
		// Reference BFS (all steps cost 1).
		dist := bfs(g, src)
		want, reach := dist[g.Index(dst)]
		if ok != reach {
			return false
		}
		if !ok {
			return true
		}
		return len(path)-1 == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func bfs(g *grid.Grid, src grid.Cell) map[int]int {
	dist := map[int]int{g.Index(src): 0}
	queue := []grid.Cell{src}
	dirs := [6]grid.Cell{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {L: 1}, {L: -1}}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, d := range dirs {
			n := grid.Cell{X: c.X + d.X, Y: c.Y + d.Y, L: c.L + d.L}
			if !g.In(n) || g.At(n) == grid.Blocked {
				continue
			}
			if _, seen := dist[g.Index(n)]; seen {
				continue
			}
			dist[g.Index(n)] = dist[g.Index(c)] + 1
			queue = append(queue, n)
		}
	}
	return dist
}
