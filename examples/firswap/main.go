// Run-time FIR coefficient swap.
//
// A binary-coefficient FIR filter smooths a 1-bit input stream. Changing the
// coefficient set conventionally requires re-implementing and fully
// reconfiguring the device; here only the filter's region is rewritten. The
// example streams an impulse train through the device before and after the
// swap and prints both impulse responses, which directly expose the
// coefficient sets.
//
//	go run ./examples/firswap
package main

import (
	"context"
	"fmt"
	"log"

	jpg "repro"
)

const (
	oldCoeff = 0b10110111 // taps {0,1,2,4,5,7}
	newCoeff = 0b11100001 // taps {0,5,6,7}: same output width, new response
)

func main() {
	ctx := context.Background()
	part, err := jpg.PartByName("XCV50")
	if err != nil {
		log.Fatal(err)
	}
	base, err := jpg.BuildBase(ctx, part, []jpg.Instance{
		{Prefix: "fir/", Gen: jpg.BinaryFIR{Taps: 8, Coeff: oldCoeff}},
		{Prefix: "aux/", Gen: jpg.Counter{Bits: 4}},
	}, jpg.FlowOptions{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	board := jpg.NewBoard(part)
	if _, err := board.Download(base.Bitstream); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("FIR filter on %s, coefficients %08b\n", part.Name, oldCoeff)
	fmt.Println("impulse response before swap:", impulseResponse(board, base))

	variant, err := jpg.BuildVariant(ctx, base, "fir/", jpg.BinaryFIR{Taps: 8, Coeff: newCoeff}, jpg.FlowOptions{Seed: 6})
	if err != nil {
		log.Fatal(err)
	}
	proj, err := jpg.NewProject(base.Bitstream)
	if err != nil {
		log.Fatal(err)
	}
	module, err := proj.AddModule("fir_new", variant.XDL, variant.UCF)
	if err != nil {
		log.Fatal(err)
	}
	res, ds, err := proj.GenerateAndDownload(ctx, module, board, jpg.GenerateOptions{Strict: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nswapped coefficients -> %08b with a %d-byte partial bitstream in %v\n",
		newCoeff, len(res.Bitstream), ds.ModelTime)
	fmt.Println("impulse response after swap: ", impulseResponse(board, base))

	// The impulse response of a binary FIR is its coefficient sequence.
	check(impulseResponse(board, base), newCoeff)
	fmt.Println("response matches the new coefficient set")
}

// impulseResponse feeds a single 1 followed by zeros and records the
// device filter's output.
func impulseResponse(board *jpg.Board, base *jpg.BaseBuild) []int {
	ex, err := jpg.ExtractDesign(board.Readback())
	if err != nil {
		log.Fatal(err)
	}
	s, err := jpg.SimulateExtracted(ex)
	if err != nil {
		log.Fatal(err)
	}
	var out []int
	for cyc := 0; cyc < 12; cyc++ {
		if err := s.SetInput(base.Pads["fir_in0"], cyc == 0); err != nil {
			log.Fatal(err)
		}
		s.Step()
		v := 0
		for i := 0; i < 3; i++ {
			if bit, _ := s.Output(base.Pads[fmt.Sprintf("fir_out%d", i)]); bit {
				v |= 1 << i
			}
		}
		out = append(out, v)
	}
	return out
}

// check verifies the tail of the impulse response equals the coefficient
// bits (the popcount output sees the impulse march down the delay line).
func check(resp []int, coeff int) {
	for i := 0; i < 8; i++ {
		want := coeff >> i & 1
		// The impulse reaches delay-line stage i after i+1 clock edges
		// (stage 0 and the output register capture on the same edge).
		if resp[i+1] != want {
			log.Fatalf("impulse response %v does not match coefficients %08b at tap %d", resp, coeff, i)
		}
	}
}
