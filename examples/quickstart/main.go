// Quickstart: generate a small benchmark, route it with the paper's
// overlay-aware SADP router, and verify the headline guarantees with the
// decomposition oracle.
package main

import (
	"fmt"
	"log"

	"sadproute"
)

func main() {
	// A 64x64-track die (2.56 um at the 10 nm node), three routing layers,
	// 150 two-pin nets.
	nl := sadp.Generate(sadp.Spec{
		Name:          "quickstart",
		Nets:          150,
		Tracks:        64,
		Layers:        3,
		Seed:          42,
		PinCandidates: 1,
		AvgHPWL:       7,
		Blockages:     2,
	})
	if err := nl.Validate(); err != nil {
		log.Fatal(err)
	}

	res := sadp.Route(nl, sadp.Node10nm(), sadp.Defaults())
	_, tot := sadp.Evaluate(res)

	fmt.Printf("routed       : %d/%d nets (%.1f%%)\n", res.Routed, len(nl.Nets), res.Routability())
	fmt.Printf("wirelength   : %d tracks, %d vias\n", res.WirelengthCells, res.Vias)
	fmt.Printf("side overlay : %.1f units (%.0f nm)\n", tot.SideOverlayUnits, float64(tot.SideOverlayNM))
	fmt.Printf("hard overlays: %d (must be 0)\n", tot.HardOverlays)
	fmt.Printf("cut conflicts: %d (must be 0)\n", tot.Conflicts)
	fmt.Printf("CPU          : %v\n", res.CPU)

	if tot.Conflicts != 0 || tot.HardOverlays != 0 {
		log.Fatal("decomposability guarantee violated")
	}
	fmt.Println("layout is SADP-cut decomposable ✓")
}
