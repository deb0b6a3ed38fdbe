package interval

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddMergesOverlapsAndTouches(t *testing.T) {
	s := NewSet(Iv{0, 10}, Iv{20, 30})
	if s.Len() != 2 {
		t.Fatalf("want 2 intervals, got %v", s)
	}
	s.Add(Iv{10, 20}) // touches both: everything coalesces
	if s.Len() != 1 || s.TotalLen() != 30 {
		t.Fatalf("want one [0,30), got %v", s)
	}
}

func TestSubtractSplits(t *testing.T) {
	s := NewSet(Iv{0, 100})
	s.Subtract(Iv{40, 60})
	if s.Len() != 2 || s.TotalLen() != 80 {
		t.Fatalf("got %v", s)
	}
	if !s.Covers(Iv{0, 40}) || !s.Covers(Iv{60, 100}) || s.Covers(Iv{39, 41}) {
		t.Fatalf("coverage wrong: %v", s)
	}
}

func TestComplement(t *testing.T) {
	s := NewSet(Iv{10, 20}, Iv{30, 40})
	c := s.Complement(Iv{0, 50})
	want := []Iv{{0, 10}, {20, 30}, {40, 50}}
	got := c.Intervals()
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// TestIntersectSet: s.Intersect(a, b) makes s a ∩ b whatever it held, and
// once its storage has grown it intersects without allocating.
func TestIntersectSet(t *testing.T) {
	a := NewSet(Iv{0, 10}, Iv{20, 30})
	b := NewSet(Iv{5, 25})
	s := NewSet(Iv{100, 200}, Iv{300, 400}, Iv{500, 600})
	s.Intersect(a, b)
	if got := s.Intervals(); len(got) != 2 || got[0] != (Iv{5, 10}) || got[1] != (Iv{20, 25}) {
		t.Fatalf("got %v", s)
	}
	if n := testing.AllocsPerRun(10, func() { s.Intersect(a, b) }); n != 0 {
		t.Errorf("Intersect allocates %.1f objects, want 0", n)
	}
}

func TestContainsAndMaxRun(t *testing.T) {
	s := NewSet(Iv{5, 8}, Iv{12, 20})
	for _, c := range []struct {
		x    int
		want bool
	}{{4, false}, {5, true}, {7, true}, {8, false}, {12, true}, {19, true}, {20, false}} {
		if s.Contains(c.x) != c.want {
			t.Errorf("Contains(%d) = %v, want %v", c.x, !c.want, c.want)
		}
	}
	if s.MaxRunLen() != 8 {
		t.Errorf("MaxRunLen = %d, want 8", s.MaxRunLen())
	}
}

// TestQuickSetMatchesBitmap cross-checks the interval set against a naive
// boolean-array model under random operation sequences.
func TestQuickSetMatchesBitmap(t *testing.T) {
	const span = 200
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &Set{}
		var bits [span]bool
		for op := 0; op < 40; op++ {
			lo := rng.Intn(span)
			hi := lo + rng.Intn(span-lo)
			iv := Iv{lo, hi}
			if rng.Intn(2) == 0 {
				s.Add(iv)
				for i := lo; i < hi; i++ {
					bits[i] = true
				}
			} else {
				s.Subtract(iv)
				for i := lo; i < hi; i++ {
					bits[i] = false
				}
			}
		}
		total := 0
		for i := 0; i < span; i++ {
			if bits[i] {
				total++
			}
			if s.Contains(i) != bits[i] {
				return false
			}
		}
		// Intervals must be sorted, disjoint, non-touching.
		prev := -1
		for _, iv := range s.Intervals() {
			if iv.Empty() || iv.Lo <= prev {
				return false
			}
			prev = iv.Hi
		}
		return s.TotalLen() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
