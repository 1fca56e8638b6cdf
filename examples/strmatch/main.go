// String-matching with run-time pattern updates — the workload the paper's
// introduction motivates (Sidhu et al., string matching on multicontext
// FPGAs using self-reconfiguration).
//
// A hardware string matcher scans a character stream for a pattern. Changing
// the pattern conventionally means a full re-implementation and a full
// reconfiguration; here the matcher region is swapped with a partial
// bitstream while the rest of the device stays configured.
//
//	go run ./examples/strmatch
package main

import (
	"context"
	"fmt"
	"log"

	jpg "repro"
)

const text = "partial reconfiguration moves patterns into hardware"

func main() {
	ctx := context.Background()
	part, err := jpg.PartByName("XCV100")
	if err != nil {
		log.Fatal(err)
	}

	// Base design: the matcher for "pattern" plus an unrelated scrambler
	// module that must keep working across reconfigurations.
	base, err := jpg.BuildBase(ctx, part, []jpg.Instance{
		{Prefix: "m/", Gen: jpg.StringMatcher{Pattern: "pattern"}},
		{Prefix: "x/", Gen: jpg.LFSR{Bits: 8, Taps: []int{7, 5, 4, 3}}},
	}, jpg.FlowOptions{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	board := jpg.NewBoard(part)
	if _, err := board.Download(base.Bitstream); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matcher deployed on %s (%d-byte full bitstream)\n\n", part.Name, len(base.Bitstream))

	scan(board, base, "pattern")

	// Swap in a matcher for "hardware" — same 8-bit-in/1-bit-out interface,
	// so only the matcher's columns change.
	for _, pattern := range []string{"hardware", "into"} {
		variant, err := jpg.BuildVariant(ctx, base, "m/", jpg.StringMatcher{Pattern: pattern}, jpg.FlowOptions{Seed: 4})
		if err != nil {
			log.Fatal(err)
		}
		proj, err := jpg.NewProjectForPart(part, board.Readback())
		if err != nil {
			log.Fatal(err)
		}
		module, err := proj.AddModule("m_"+pattern, variant.XDL, variant.UCF)
		if err != nil {
			log.Fatal(err)
		}
		res, ds, err := proj.GenerateAndDownload(ctx, module, board, jpg.GenerateOptions{Strict: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("swapped pattern -> %q: %d-byte partial (%.1f%% of full), reconfig in %v\n",
			pattern, len(res.Bitstream),
			100*float64(len(res.Bitstream))/float64(len(base.Bitstream)), ds.ModelTime)
		scan(board, base, pattern)
	}
}

// scan streams the text through the device's matcher and prints match
// positions, verifying them against a software scan.
func scan(board *jpg.Board, base *jpg.BaseBuild, pattern string) {
	ex, err := jpg.ExtractDesign(board.Readback())
	if err != nil {
		log.Fatal(err)
	}
	s, err := jpg.SimulateExtracted(ex)
	if err != nil {
		log.Fatal(err)
	}
	var matches []int
	for pos := 0; pos < len(text); pos++ {
		for bit := 0; bit < 8; bit++ {
			if err := s.SetInput(base.Pads[fmt.Sprintf("m_in%d", bit)], text[pos]>>bit&1 == 1); err != nil {
				log.Fatal(err)
			}
		}
		s.Step()
		if hit, _ := s.Output(base.Pads["m_out0"]); hit {
			matches = append(matches, pos-len(pattern)+1)
		}
	}
	fmt.Printf("  device matches for %q at %v\n", pattern, matches)
	var want []int
	for i := 0; i+len(pattern) <= len(text); i++ {
		if text[i:i+len(pattern)] == pattern {
			want = append(want, i)
		}
	}
	if fmt.Sprint(matches) != fmt.Sprint(want) {
		log.Fatalf("device disagrees with software scan (want %v)", want)
	}
	fmt.Println("  verified against software scan")
}
