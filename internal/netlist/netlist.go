// Package netlist models the router's input (paper Section II, problem
// input; Section IV's two benchmark families): two-pin nets whose pins
// have one or more candidate locations (fixed pins for Table III, multiple
// pin candidate locations for Table IV), plus routing blockages, on a
// W x H x Layers grid.
package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode"

	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/rules"
)

// Pin is one net terminal with one or more candidate locations; the router
// picks exactly one.
type Pin struct {
	Candidates []grid.Cell
}

// Fixed reports whether the pin has a single candidate location.
func (p Pin) Fixed() bool { return len(p.Candidates) == 1 }

// Net is a two-pin net.
type Net struct {
	ID   int
	Name string
	A, B Pin
}

// HPWL returns the half-perimeter wirelength lower bound between the
// closest candidate pair (used for net ordering).
func (n Net) HPWL() int {
	best := -1
	for _, a := range n.A.Candidates {
		for _, b := range n.B.Candidates {
			d := absi(a.X-b.X) + absi(a.Y-b.Y) + absi(a.L-b.L)
			if best < 0 || d < best {
				best = d
			}
		}
	}
	return best
}

// Blockage is a rectangle of forbidden cells on one layer.
type Blockage struct {
	L    int
	Rect geom.Rect // cell coordinates, half-open
}

// Netlist is a routing problem instance.
type Netlist struct {
	Name         string
	W, H, Layers int
	Nets         []Net
	Blockages    []Blockage
}

// MaxCells bounds a netlist's grid at W×H×Layers cells. Routing holds
// about 28 bytes per cell (Huge3's 5.88M cells peak near 164 MB), so a
// grid at the limit needs about 0.94 GB. Validate refuses a larger grid
// before anything allocates it: an allocation that fails kills the whole
// process, which no recover can catch.
const MaxCells = 1 << 25

// Validate checks that the grid has at most MaxCells cells, that every pin
// candidate and blockage lies on it, that nets have at least one candidate
// per pin, and that the names survive Write and Read: no whitespace in the
// netlist's name, and a net name that is not empty and has no whitespace.
func (nl *Netlist) Validate() error {
	if hasSpace(nl.Name) {
		return fmt.Errorf("netlist: name %q contains whitespace", nl.Name)
	}
	if nl.W <= 0 || nl.H <= 0 || nl.Layers <= 0 {
		return fmt.Errorf("netlist: invalid grid %dx%dx%d", nl.W, nl.H, nl.Layers)
	}
	// Divide rather than multiply, so that no product can overflow.
	if nl.W > MaxCells/nl.H || nl.Layers > MaxCells/(nl.W*nl.H) {
		return fmt.Errorf("netlist: grid %dx%dx%d has more than %d cells", nl.W, nl.H, nl.Layers, MaxCells)
	}
	bounds := geom.Rect{X1: nl.W, Y1: nl.H}
	for i, n := range nl.Nets {
		if n.ID != i {
			return fmt.Errorf("netlist: net %d has id %d; ids must be dense", i, n.ID)
		}
		if n.Name == "" || hasSpace(n.Name) {
			return fmt.Errorf("netlist: net %d name %q is empty or contains whitespace", i, n.Name)
		}
		for _, pin := range []Pin{n.A, n.B} {
			if len(pin.Candidates) == 0 {
				return fmt.Errorf("netlist: net %d has a pin without candidates", i)
			}
			for _, c := range pin.Candidates {
				if c.X < 0 || c.X >= nl.W || c.Y < 0 || c.Y >= nl.H || c.L < 0 || c.L >= nl.Layers {
					return fmt.Errorf("netlist: net %d pin candidate %v off grid", i, c)
				}
			}
		}
	}
	for _, b := range nl.Blockages {
		if b.L < 0 || b.L >= nl.Layers || !bounds.ContainsRect(b.Rect) {
			return fmt.Errorf("netlist: blockage %v/%d off grid", b.Rect, b.L)
		}
	}
	return nil
}

// hasSpace reports whether s holds a rune strings.Fields splits on.
func hasSpace(s string) bool { return strings.IndexFunc(s, unicode.IsSpace) >= 0 }

// HPWLOrder returns the net ids sorted by ascending HPWL, ties in id order:
// shortest first, the standard detailed-routing order the router and the
// baselines share.
func (nl *Netlist) HPWLOrder() []int {
	order := make([]int, len(nl.Nets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return nl.Nets[order[i]].HPWL() < nl.Nets[order[j]].HPWL()
	})
	return order
}

// BuildGrid allocates a routing grid with the netlist's blockages applied.
func (nl *Netlist) BuildGrid(ds rules.Set) *grid.Grid {
	g := grid.New(nl.W, nl.H, nl.Layers, ds)
	for _, b := range nl.Blockages {
		g.Block(b.L, b.Rect)
	}
	return g
}

// Write serializes the netlist in the package's plain-text format:
//
//	name <string>
//	grid <W> <H> <Layers>
//	blockage <layer> <x0> <y0> <x1> <y1>
//	net <name> <cands A> -> <cands B>
//
// where a candidate list is (x,y,l) terms separated by '|'.
func (nl *Netlist) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "name %s\n", nl.Name)
	fmt.Fprintf(bw, "grid %d %d %d\n", nl.W, nl.H, nl.Layers)
	for _, b := range nl.Blockages {
		fmt.Fprintf(bw, "blockage %d %d %d %d %d\n", b.L, b.Rect.X0, b.Rect.Y0, b.Rect.X1, b.Rect.Y1)
	}
	for _, n := range nl.Nets {
		fmt.Fprintf(bw, "net %s %s -> %s\n", n.Name, fmtPin(n.A), fmtPin(n.B))
	}
	return bw.Flush()
}

func fmtPin(p Pin) string {
	parts := make([]string, len(p.Candidates))
	for i, c := range p.Candidates {
		parts[i] = fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.L)
	}
	return strings.Join(parts, "|")
}

// Read parses the plain-text format produced by Write.
func Read(r io.Reader) (*Netlist, error) {
	nl := &Netlist{}
	sc := bufio.NewScanner(r)
	// Grow from the scanner's small default buffer, up to 16 MiB lines.
	sc.Buffer(nil, 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "name":
			if len(fields) >= 2 {
				nl.Name = fields[1]
			}
		case "grid":
			if len(fields) != 4 {
				return nil, fmt.Errorf("netlist: line %d: grid wants 3 ints", lineNo)
			}
			if _, err := fmt.Sscanf(line, "grid %d %d %d", &nl.W, &nl.H, &nl.Layers); err != nil {
				return nil, fmt.Errorf("netlist: line %d: %v", lineNo, err)
			}
		case "blockage":
			var b Blockage
			if _, err := fmt.Sscanf(line, "blockage %d %d %d %d %d",
				&b.L, &b.Rect.X0, &b.Rect.Y0, &b.Rect.X1, &b.Rect.Y1); err != nil {
				return nil, fmt.Errorf("netlist: line %d: %v", lineNo, err)
			}
			nl.Blockages = append(nl.Blockages, b)
		case "net":
			if len(fields) != 5 || fields[3] != "->" {
				return nil, fmt.Errorf("netlist: line %d: net wants 'net NAME A -> B'", lineNo)
			}
			a, err := parsePin(fields[2])
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %v", lineNo, err)
			}
			b, err := parsePin(fields[4])
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %v", lineNo, err)
			}
			nl.Nets = append(nl.Nets, Net{ID: len(nl.Nets), Name: fields[1], A: a, B: b})
		default:
			return nil, fmt.Errorf("netlist: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return nl, nil
}

func parsePin(s string) (Pin, error) {
	var p Pin
	for _, part := range strings.Split(s, "|") {
		var c grid.Cell
		if _, err := fmt.Sscanf(part, "(%d,%d,%d)", &c.X, &c.Y, &c.L); err != nil {
			return Pin{}, fmt.Errorf("bad pin candidate %q: %v", part, err)
		}
		p.Candidates = append(p.Candidates, c)
	}
	return p, nil
}

func absi(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
