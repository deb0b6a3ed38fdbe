package netlist

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/rules"
)

func sample() *Netlist {
	return &Netlist{
		Name: "t", W: 16, H: 16, Layers: 3,
		Blockages: []Blockage{{L: 1, Rect: geom.Rect{X0: 2, Y0: 2, X1: 5, Y1: 4}}},
		Nets: []Net{
			{ID: 0, Name: "n0",
				A: Pin{Candidates: []grid.Cell{{X: 1, Y: 1}}},
				B: Pin{Candidates: []grid.Cell{{X: 9, Y: 9}, {X: 9, Y: 8, L: 1}}}},
			{ID: 1, Name: "n1",
				A: Pin{Candidates: []grid.Cell{{X: 3, Y: 7}}},
				B: Pin{Candidates: []grid.Cell{{X: 3, Y: 12}}}},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	nl := sample()
	var buf bytes.Buffer
	if err := nl.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != nl.Name || got.W != nl.W || len(got.Nets) != len(nl.Nets) {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Nets[0].B.Candidates[1] != (grid.Cell{X: 9, Y: 8, L: 1}) {
		t.Fatalf("candidate mismatch: %+v", got.Nets[0].B)
	}
	if len(got.Blockages) != 1 || got.Blockages[0].Rect != nl.Blockages[0].Rect {
		t.Fatalf("blockage mismatch: %+v", got.Blockages)
	}
}

func TestValidateRejectsOffGrid(t *testing.T) {
	nl := sample()
	nl.Nets[1].A.Candidates[0].X = 99
	if err := nl.Validate(); err == nil {
		t.Fatal("off-grid pin must fail validation")
	}
}

// TestValidateRejectsHugeGrid pins MaxCells: the limit itself passes, one
// layer more fails, and a two-line text netlist asking for a 480 GB grid is
// refused by Read instead of reaching BuildGrid. Factors whose product
// overflows int must not wrap past the check.
func TestValidateRejectsHugeGrid(t *testing.T) {
	nl := sample()
	nl.W, nl.H, nl.Layers = 1<<12, 1<<12, 2
	if err := nl.Validate(); err != nil {
		t.Fatalf("grid of MaxCells cells rejected: %v", err)
	}
	for _, dims := range [][3]int{{1 << 12, 1 << 12, 3}, {200000, 200000, 3}, {1 << 40, 1 << 40, 1 << 40}, {16, 1 << 62, 16}} {
		nl.W, nl.H, nl.Layers = dims[0], dims[1], dims[2]
		if err := nl.Validate(); err == nil {
			t.Errorf("grid %dx%dx%d passed validation", dims[0], dims[1], dims[2])
		}
	}
	if _, err := Read(strings.NewReader("grid 200000 200000 3\nnet a (0,0,0) -> (1,1,0)\n")); err == nil || !strings.Contains(err.Error(), "cells") {
		t.Fatalf("Read accepted a 1.2e11-cell grid (err %v)", err)
	}
}

func TestValidateRejectsSparseIDs(t *testing.T) {
	nl := sample()
	nl.Nets[1].ID = 5
	if err := nl.Validate(); err == nil {
		t.Fatal("non-dense ids must fail validation")
	}
}

// TestReadLongLines reads a line longer than 1 MiB, past the scanner's
// default buffer, and refuses one longer than the 16 MiB line limit.
func TestReadLongLines(t *testing.T) {
	long := strings.Repeat("a", 1<<20+1)
	nl, err := Read(strings.NewReader("name " + long + "\ngrid 4 4 1\nnet a (0,0,0) -> (1,1,0)\n"))
	if err != nil {
		t.Fatal(err)
	}
	if nl.Name != long {
		t.Fatalf("name of %d bytes read back as %d bytes", len(long), len(nl.Name))
	}
	huge := io.MultiReader(strings.NewReader("name "), io.LimitReader(repeatReader('a'), 1<<24))
	if _, err := Read(huge); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("a 16 MiB line: err %v, want %v", err, bufio.ErrTooLong)
	}
}

// repeatReader reads as an endless run of one byte.
type repeatReader byte

func (b repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestValidateNames refuses the names Write cannot express — an empty net
// name, whitespace in a net's or the netlist's name — and holds every name
// it accepts to the round trip: Write then Read gives the names back.
func TestValidateNames(t *testing.T) {
	for _, bad := range []struct{ netlist, net string }{
		{"t", ""}, {"t", "a b"}, {"t", "a\tb"}, {"t", "x\n"}, {"t", "nb\u00a0sp"}, {"t", "\r"},
		{"my chip", "n"}, {"chip\n", "n"}, {" ", "n"},
	} {
		nl := sample()
		nl.Name, nl.Nets[1].Name = bad.netlist, bad.net
		if err := nl.Validate(); err == nil {
			t.Errorf("Validate accepted netlist name %q with net name %q", bad.netlist, bad.net)
		}
	}
	for _, good := range []struct{ netlist, net string }{
		{"t", "n1"}, {"", "->"}, {"#chip", "#n"}, {"x|y", "(1,2,3)"}, {"µchip", "nét_2"}, {"a-b.c", "net"},
	} {
		nl := sample()
		nl.Name, nl.Nets[1].Name = good.netlist, good.net
		if err := nl.Validate(); err != nil {
			t.Errorf("Validate refused netlist name %q with net name %q: %v", good.netlist, good.net, err)
			continue
		}
		var buf bytes.Buffer
		if err := nl.Write(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Errorf("names %q, %q: Read of Write's output: %v", good.netlist, good.net, err)
			continue
		}
		if !reflect.DeepEqual(back, nl) {
			t.Errorf("names %q, %q read back as %q, %q", good.netlist, good.net, back.Name, back.Nets[1].Name)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("grid 4 4 1\nbogus directive\n")); err == nil {
		t.Fatal("unknown directive must error")
	}
	if _, err := Read(strings.NewReader("grid 4 4 1\nnet x (1,1,0) >> (2,2,0)\n")); err == nil {
		t.Fatal("malformed net must error")
	}
}

func TestHPWL(t *testing.T) {
	n := Net{
		A: Pin{Candidates: []grid.Cell{{X: 0, Y: 0}}},
		B: Pin{Candidates: []grid.Cell{{X: 3, Y: 4}, {X: 1, Y: 1}}},
	}
	if n.HPWL() != 2 {
		t.Fatalf("HPWL should take the closest pair, got %d", n.HPWL())
	}
}

// TestHPWLOrder pins the routing order: ascending HPWL, ties in id order.
func TestHPWLOrder(t *testing.T) {
	pin := func(x, y int) Pin { return Pin{Candidates: []grid.Cell{{X: x, Y: y}}} }
	nl := &Netlist{Nets: []Net{
		{ID: 0, A: pin(0, 0), B: pin(5, 0)},
		{ID: 1, A: pin(0, 0), B: pin(1, 1)},
		{ID: 2, A: pin(0, 0), B: pin(0, 5)},
		{ID: 3, A: pin(0, 0), B: pin(3, 0)},
	}}
	got := nl.HPWLOrder()
	want := []int{1, 3, 0, 2}
	for i := range want {
		if len(got) != len(want) || got[i] != want[i] {
			t.Fatalf("HPWLOrder = %v, want %v", got, want)
		}
	}
}

func TestBuildGridAppliesBlockages(t *testing.T) {
	nl := sample()
	g := nl.BuildGrid(rules.Node10nm())
	if g.At(grid.Cell{X: 3, Y: 3, L: 1}) != grid.Blocked {
		t.Fatal("blockage not applied")
	}
	if g.At(grid.Cell{X: 3, Y: 3, L: 0}) != grid.Free {
		t.Fatal("wrong layer blocked")
	}
}
