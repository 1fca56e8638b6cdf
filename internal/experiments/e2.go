package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bitstream"
	"repro/internal/device"
	"repro/internal/frames"
)

// E2 reproduces §2.1's size claim: a partial bitstream covering a fraction
// of the device's columns is proportionally smaller than the complete
// bitstream, across the Virtex family.
func E2(_ context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	parts := []string{"XCV50", "XCV300", "XCV1000"}
	fractions := []int{8, 6, 4, 3, 2, 1} // denominators: 1/8 .. 1/1
	if cfg.Quick {
		parts = []string{"XCV50"}
		fractions = []int{4, 3, 1}
	}
	t := &Table{
		ID:    "E2",
		Title: "partial vs complete bitstream size by region width and device",
		Claim: "partial bitstream size scales with the reconfigured column fraction " +
			"(a 1/3-width region gives a bitstream about 1/3 the size of a full one)",
		Columns: []string{"part", "cols", "region cols", "fraction", "full bytes", "partial bytes", "ratio"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var worst float64
	for _, name := range parts {
		p, err := device.ByName(name)
		if err != nil {
			return nil, err
		}
		mem := frames.New(p)
		// Populate with arbitrary content; sizes are content-independent.
		for i := 0; i < 200; i++ {
			mem.SetBit(p.CLBBit(rng.Intn(p.Rows), rng.Intn(p.Cols), rng.Intn(device.CLBLocalBits)), true)
		}
		full := bitstream.WriteFull(mem)
		for _, den := range fractions {
			cols := p.Cols / den
			rg := frames.Region{R1: 0, C1: 0, R2: p.Rows - 1, C2: cols - 1}
			partial, err := bitstream.WritePartialForFARs(mem, rg.FARs(p))
			if err != nil {
				return nil, err
			}
			ratio := float64(len(partial)) / float64(len(full))
			frac := float64(cols) / float64(p.Cols)
			t.AddRow(p.Name, p.Cols, cols, fmt.Sprintf("1/%d", den), len(full), len(partial),
				fmt.Sprintf("%.3f", ratio))
			if dev := ratio / frac; dev > worst {
				worst = dev
			}
		}
	}
	t.Note("worst ratio/fraction deviation = %.2fx (1.0 = perfectly proportional; CLB columns carry", worst)
	t.Note("48 of the ~54 frames per column-equivalent, so partials run slightly under proportional)")
	if worst < 1.30 {
		t.Note("VERDICT: PASS (size tracks the column fraction)")
	} else {
		t.Note("VERDICT: FAIL (size does not track the column fraction)")
	}
	return t, nil
}
