// Quickstart: the paper's two-phase methodology end to end.
//
// Phase 1 builds a floorplanned base design (a counter and an S-box bank in
// their own column regions) and downloads its complete bitstream to a
// simulated board. Phase 2 implements an LFSR variant for the counter's
// region as its own project; the JPG tool turns the variant's XDL/UCF into a
// partial bitstream, which dynamically reconfigures the running board.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	jpg "repro"
)

func main() {
	ctx := context.Background()
	part, err := jpg.PartByName("XCV50")
	if err != nil {
		log.Fatal(err)
	}

	// ---- Phase 1: the base design ----
	base, err := jpg.BuildBase(ctx, part, []jpg.Instance{
		{Prefix: "u1/", Gen: jpg.Counter{Bits: 6}},
		{Prefix: "u2/", Gen: jpg.SBoxBank{N: 8, Seed: 3}},
	}, jpg.FlowOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base design on %s: %d bytes full bitstream, CAD %v\n",
		part.Name, len(base.Bitstream), base.Times.Total().Round(1000))
	prefixes := make([]string, 0, len(base.Regions))
	for prefix := range base.Regions {
		prefixes = append(prefixes, prefix)
	}
	sort.Strings(prefixes)
	for _, prefix := range prefixes {
		rg := base.Regions[prefix]
		fmt.Printf("  region %s: columns %d..%d\n", prefix, rg.C1+1, rg.C2+1)
	}

	board := jpg.NewBoard(part)
	ds, err := board.Download(base.Bitstream)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full download: %d bytes in %v (device running: %v)\n\n",
		ds.Bytes, ds.ModelTime, board.Running())

	// ---- Phase 2: a variant for region u1 ----
	variant, err := jpg.BuildVariant(ctx, base, "u1/", jpg.LFSR{Bits: 6, Taps: []int{5, 2}}, jpg.FlowOptions{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("variant %q: CAD %v (vs %v for the base design)\n",
		variant.Netlist.Name, variant.Times.Total().Round(1000), base.Times.Total().Round(1000))

	// ---- JPG: XDL + UCF -> partial bitstream ----
	proj, err := jpg.NewProject(base.Bitstream)
	if err != nil {
		log.Fatal(err)
	}
	module, err := proj.AddModule("u1_lfsr", variant.XDL, variant.UCF)
	if err != nil {
		log.Fatal(err)
	}
	res, dsPartial, err := proj.GenerateAndDownload(ctx, module, board, jpg.GenerateOptions{Strict: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partial bitstream: %d bytes (%.1f%% of full), %d frames, columns %d..%d\n",
		len(res.Bitstream), 100*float64(len(res.Bitstream))/float64(len(base.Bitstream)),
		len(res.FARs), res.Region.C1+1, res.Region.C2+1)
	fmt.Printf("partial download: %v (%.1fx faster than full)\n",
		dsPartial.ModelTime, float64(ds.ModelTime)/float64(dsPartial.ModelTime))

	// ---- Verify: the device now runs the LFSR, u2 is untouched ----
	ex, err := jpg.ExtractDesign(board.Readback())
	if err != nil {
		log.Fatal(err)
	}
	s, err := jpg.SimulateExtracted(ex)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nu1 outputs after reconfiguration (should follow the LFSR sequence):")
	for cyc := 0; cyc < 8; cyc++ {
		s.Step()
		v := 0
		for i := 0; i < 6; i++ {
			bit, err := s.Output(base.Pads[fmt.Sprintf("u1_out%d", i)])
			if err != nil {
				log.Fatal(err)
			}
			if bit {
				v |= 1 << i
			}
		}
		fmt.Printf("  cycle %d: %06b\n", cyc, v)
	}
}
