// The Figure 4 scenario: a device partitioned into three reconfigurable
// regions with 3, 3 and 4 interface-compatible module variants. Supporting
// all 36 module combinations needs 36 full CAD runs and 36 complete
// bitstreams under the conventional flow; with JPG it needs one base build
// plus 10 small variant runs and 10 partial bitstreams. This example builds
// the JPG side, then walks the device through a sequence of combinations by
// downloading partial bitstreams only.
//
//	go run ./examples/multiregion
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	jpg "repro"
)

func main() {
	ctx := context.Background()
	part, err := jpg.PartByName("XCV50")
	if err != nil {
		log.Fatal(err)
	}
	regions := []struct {
		prefix   string
		variants []jpg.Generator
	}{
		{"u1/", []jpg.Generator{
			jpg.Counter{Bits: 6},
			jpg.LFSR{Bits: 6, Taps: []int{5, 0}},
			jpg.LFSR{Bits: 6, Taps: []int{5, 2, 1, 0}},
		}},
		{"u2/", []jpg.Generator{
			jpg.SBoxBank{N: 8, Seed: 11},
			jpg.SBoxBank{N: 8, Seed: 22},
			jpg.SBoxBank{N: 8, Seed: 33},
		}},
		{"u3/", []jpg.Generator{
			jpg.BinaryFIR{Taps: 8, Coeff: 0xB7},
			jpg.BinaryFIR{Taps: 8, Coeff: 0x7E},
			jpg.BinaryFIR{Taps: 8, Coeff: 0xDB},
			jpg.BinaryFIR{Taps: 8, Coeff: 0xE7},
		}},
	}

	// One base build with the first variant of each region.
	insts := make([]jpg.Instance, len(regions))
	combos := 1
	for i, r := range regions {
		insts[i] = jpg.Instance{Prefix: r.prefix, Gen: r.variants[0]}
		combos *= len(r.variants)
	}
	t0 := time.Now()
	base, err := jpg.BuildBase(ctx, part, insts, jpg.FlowOptions{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base design (%d combinations possible): %v CAD, %d-byte bitstream\n",
		combos, time.Since(t0).Round(time.Millisecond), len(base.Bitstream))

	// One partial bitstream per variant (3+3+4 = 10). The per-variant CAD
	// runs are independent, so they go through the concurrent farm; the
	// results (and bitstream bytes) are identical to a serial loop.
	var specs []jpg.VariantSpec
	var prefixes []string
	for _, r := range regions {
		for vi, gen := range r.variants {
			specs = append(specs, jpg.VariantSpec{
				Prefix: r.prefix, Gen: gen,
				Opts: jpg.FlowOptions{Seed: int64(10 + vi)},
			})
			prefixes = append(prefixes, r.prefix)
		}
	}
	variants, err := jpg.BuildVariants(ctx, base, specs)
	if err != nil {
		log.Fatal(err)
	}
	proj, err := jpg.NewProject(base.Bitstream)
	if err != nil {
		log.Fatal(err)
	}
	totalVariantCAD := time.Duration(0)
	mods := make([]*jpg.ProjectModule, len(variants))
	for i, va := range variants {
		totalVariantCAD += va.Times.Total()
		m, err := proj.AddModule(prefixes[i]+specs[i].Gen.Name(), va.XDL, va.UCF)
		if err != nil {
			log.Fatal(err)
		}
		mods[i] = m
	}
	results, err := proj.GeneratePartialAll(ctx, mods, jpg.GenerateOptions{Strict: true})
	if err != nil {
		log.Fatal(err)
	}
	partials := map[string][][]byte{}
	totalPartialBytes := 0
	for i, res := range results {
		partials[prefixes[i]] = append(partials[prefixes[i]], res.Bitstream)
		totalPartialBytes += len(res.Bitstream)
	}
	fmt.Printf("%d partial bitstreams: %d bytes total, variant CAD %v total\n",
		len(results), totalPartialBytes, totalVariantCAD.Round(time.Millisecond))
	fmt.Printf("conventional flow would need %d full runs and ~%d bytes of bitstreams\n\n",
		combos, combos*len(base.Bitstream))

	// Walk the running device through combinations: each step swaps one
	// region with a partial download.
	board := jpg.NewBoard(part)
	if _, err := board.Download(base.Bitstream); err != nil {
		log.Fatal(err)
	}
	walk := []struct {
		region  int
		variant int
	}{{0, 1}, {2, 3}, {1, 2}, {0, 2}, {2, 0}, {1, 0}}
	reconfigTime := time.Duration(0)
	for _, step := range walk {
		r := regions[step.region]
		bs := partials[r.prefix][step.variant]
		ds, err := board.Download(bs)
		if err != nil {
			log.Fatal(err)
		}
		reconfigTime += ds.ModelTime
		fmt.Printf("swapped %s -> %-14s %6d bytes, %v\n",
			r.prefix, r.variants[step.variant].Name(), ds.Bytes, ds.ModelTime)
	}
	fmt.Printf("\n%d context switches in %v of configuration traffic ", len(walk), reconfigTime)
	fullTime := time.Duration(float64(len(base.Bitstream)) / 50e6 * float64(time.Second) * float64(len(walk)))
	fmt.Printf("(full reconfigs would need %v)\n", fullTime)
}
