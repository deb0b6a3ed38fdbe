package bench

import (
	"testing"
	"time"

	"sadproute/internal/geom"
	"sadproute/internal/netlist"
)

func TestGenerateDeterministic(t *testing.T) {
	sp := Spec{Name: "g", Nets: 100, Tracks: 48, Layers: 3, Seed: 5, PinCandidates: 2, AvgHPWL: 5, Blockages: 3}
	a := Generate(sp)
	b := Generate(sp)
	if len(a.Nets) != len(b.Nets) || len(a.Nets) != 100 {
		t.Fatalf("net counts: %d vs %d", len(a.Nets), len(b.Nets))
	}
	for i := range a.Nets {
		if a.Nets[i].A.Candidates[0] != b.Nets[i].A.Candidates[0] {
			t.Fatal("generation not deterministic")
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateUniquePins(t *testing.T) {
	nl := Generate(Spec{Name: "g", Nets: 200, Tracks: 64, Layers: 3, Seed: 1, PinCandidates: 3, AvgHPWL: 6})
	seen := map[geom.Pt]bool{}
	for _, n := range nl.Nets {
		for _, pin := range []netlist.Pin{n.A, n.B} {
			for _, c := range pin.Candidates {
				pt := geom.Pt{X: c.X, Y: c.Y}
				if seen[pt] {
					t.Fatalf("pin cell %v reused", pt)
				}
				seen[pt] = true
			}
		}
	}
}

func TestPaperSpecsShape(t *testing.T) {
	fixed := PaperSpecs(true)
	multi := PaperSpecs(false)
	if len(fixed) != 5 || len(multi) != 5 {
		t.Fatal("want 5 specs per family")
	}
	if fixed[0].Nets != 1500 || fixed[4].Nets != 28000 {
		t.Fatalf("net counts: %+v", fixed)
	}
	if fixed[0].PinCandidates != 1 || multi[0].PinCandidates != 3 {
		t.Fatal("candidate counts wrong")
	}
	if multi[0].Name != "Test6" || fixed[0].Name != "Test1" {
		t.Fatal("names wrong")
	}
	if got := fixed[4].SizeUM(); got != 36 {
		t.Fatalf("Test5 die = %v um, want 36", got)
	}
}

// TestHugeSpecsGenerate pins the shape of the corridor-routing family and
// the macro-placement invariants Generate promises for it: full-stack
// slabs with a Tracks/8 channel between macros and the die edge, and no
// pin under any blockage's projection on any layer.
func TestHugeSpecsGenerate(t *testing.T) {
	specs := HugeSpecs()
	if len(specs) != 3 {
		t.Fatalf("want 3 huge specs, got %d", len(specs))
	}
	for _, sp := range specs {
		if sp.MacroBlockages == 0 || sp.Layers != 3 || sp.PinCandidates != 1 {
			t.Fatalf("%s: unexpected profile %+v", sp.Name, sp)
		}
		nl := Generate(sp)
		if err := nl.Validate(); err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if len(nl.Nets) != sp.Nets || nl.W != sp.Tracks {
			t.Fatalf("%s: generated %d nets on %d tracks", sp.Name, len(nl.Nets), nl.W)
		}
		// Full-stack macros: every layer-0 macro rect must appear on all
		// layers. Count rects per layer; macros contribute equally.
		perLayer := make([]int, sp.Layers)
		var rects []geom.Rect
		for _, b := range nl.Blockages {
			perLayer[b.L]++
			rects = append(rects, b.Rect)
		}
		if perLayer[1] < sp.MacroBlockages || perLayer[2] < sp.MacroBlockages {
			t.Fatalf("%s: macros are not full-stack: per-layer rects %v", sp.Name, perLayer)
		}
		// No pin inside any blockage's XY projection.
		for _, n := range nl.Nets {
			for _, pin := range []netlist.Pin{n.A, n.B} {
				for _, c := range pin.Candidates {
					for _, r := range rects {
						if c.X >= r.X0 && c.X < r.X1 && c.Y >= r.Y0 && c.Y < r.Y1 {
							t.Fatalf("%s: pin %v under blockage shadow %v", sp.Name, c, r)
						}
					}
				}
			}
		}
		// Byte-level determinism: the huge family must be reproducible.
		if b := Generate(sp); len(b.Blockages) != len(nl.Blockages) || b.Blockages[0] != nl.Blockages[0] {
			t.Fatalf("%s: generation not deterministic", sp.Name)
		}
	}
}

// TestGenerateStopsWhenFull: 30 nets of up to three pin candidates each
// cannot all fit on a 12×12 die. Generate used to draw forever there (a
// FuzzRouteGuarantee input found it); it must stop once no further net
// fits, with a valid netlist of unique pin cells.
func TestGenerateStopsWhenFull(t *testing.T) {
	sp := Spec{Name: "full", Nets: 30, Tracks: 12, Layers: 3, Seed: 0, PinCandidates: 3, AvgHPWL: 3}
	done := make(chan *netlist.Netlist, 1)
	go func() { done <- Generate(sp) }()
	var nl *netlist.Netlist
	select {
	case nl = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("Generate did not return on a die too small for its nets")
	}
	if len(nl.Nets) == 0 || len(nl.Nets) >= sp.Nets {
		t.Fatalf("%d nets, want some but fewer than %d", len(nl.Nets), sp.Nets)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[geom.Pt]bool{}
	for _, n := range nl.Nets {
		for _, pin := range []netlist.Pin{n.A, n.B} {
			for _, c := range pin.Candidates {
				if pt := (geom.Pt{X: c.X, Y: c.Y}); seen[pt] {
					t.Fatalf("pin cell %v reused", pt)
				} else {
					seen[pt] = true
				}
			}
		}
	}
}
