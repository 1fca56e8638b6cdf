package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/extract"
	"repro/internal/flow"
	"repro/internal/frames"
	"repro/internal/sim"
)

// E5 verifies the paper's correctness premise (§3.2, claim C4): applying a
// JPG partial bitstream on top of the running base design yields a device
// state equivalent to the base with the module swapped — checked both at the
// frame level (nothing outside the module's columns changes) and
// functionally (the design extracted from the reconfigured device behaves
// like the intended variant while the untouched module keeps working).
func E5(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	part, err := device.ByName(cfg.Part)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "E5",
		Title: fmt.Sprintf("partial-reconfiguration equivalence on %s", part.Name),
		Claim: "a partial bitstream written onto the base design reproduces the swapped " +
			"module exactly, leaving the rest of the device untouched",
		Columns: []string{"swap", "partial frames", "frames changed", "outside-region change", "functional"},
	}

	type swap struct {
		name    string
		baseGen designs.Generator
		varGen  designs.Generator
		otherG  designs.Generator
	}
	swaps := []swap{
		{"counter6->lfsr6", designs.Counter{Bits: 6}, designs.LFSR{Bits: 6, Taps: []int{5, 2}}, designs.SBoxBank{N: 6, Seed: 3}},
		{"sbox8->sbox8'", designs.SBoxBank{N: 8, Seed: 1}, designs.SBoxBank{N: 8, Seed: 2}, designs.Counter{Bits: 4}},
		{"fir8->fir8'", designs.BinaryFIR{Taps: 8, Coeff: 0xB7}, designs.BinaryFIR{Taps: 8, Coeff: 0x7E}, designs.LFSR{Bits: 4}},
	}
	if cfg.Quick {
		swaps = swaps[:1]
	}

	allPass := true
	for si, sw := range swaps {
		base, err := flow.BuildBase(ctx, part, []designs.Instance{
			{Prefix: "u1/", Gen: sw.baseGen},
			{Prefix: "u2/", Gen: sw.otherG},
		}, cfg.flowOpts(cfg.Seed+int64(si)))
		if err != nil {
			return nil, fmt.Errorf("E5 %s base: %w", sw.name, err)
		}
		variant, err := flow.BuildVariant(ctx, base, "u1/", sw.varGen, cfg.flowOpts(cfg.Seed+100+int64(si)))
		if err != nil {
			return nil, fmt.Errorf("E5 %s variant: %w", sw.name, err)
		}
		board, err := cfg.board(part)
		if err != nil {
			return nil, err
		}
		if _, err := board.DownloadCtx(ctx, base.Bitstream); err != nil {
			return nil, err
		}
		before := board.Readback()
		proj, err := core.NewProject(base.Bitstream)
		if err != nil {
			return nil, err
		}
		m, err := proj.AddModule(sw.name, variant.XDL, variant.UCF)
		if err != nil {
			return nil, err
		}
		res, _, err := proj.GenerateAndDownload(ctx, m, board, cfg.genOpts(core.GenerateOptions{Strict: true}))
		if err != nil {
			return nil, fmt.Errorf("E5 %s: %w", sw.name, err)
		}
		after := board.Readback()

		outside := 0
		diff, err := after.Diff(before)
		if err != nil {
			return nil, err
		}
		for _, far := range diff {
			col, ok := part.CLBColOfMajor(far.Major())
			if !ok || col < res.Region.C1 || col > res.Region.C2 {
				outside++
			}
		}
		functional := "PASS"
		if err := functionalCheck(base, sw.varGen, sw.otherG, after); err != nil {
			functional = "FAIL: " + err.Error()
			allPass = false
		}
		if outside != 0 {
			allPass = false
		}
		t.AddRow(sw.name, len(res.FARs), res.FramesChanged, outside, functional)
	}
	if allPass {
		t.Note("VERDICT: PASS (all swaps equivalent at frame and functional level)")
	} else {
		t.Note("VERDICT: FAIL")
	}
	return t, nil
}

// functionalCheck extracts the reconfigured device's design and co-simulates
// it against software references: u1 must behave like the swapped-in variant
// and u2 like the untouched module.
func functionalCheck(base *flow.BaseBuild, varGen, otherGen designs.Generator, after *frames.Memory) error {
	ex, err := extract.FromMemory(after)
	if err != nil {
		return fmt.Errorf("extract: %w", err)
	}
	devSim, err := sim.New(ex.Netlist)
	if err != nil {
		return fmt.Errorf("extracted design: %w", err)
	}
	refs := map[string]designs.Generator{"u1": varGen, "u2": otherGen}
	refSims := map[string]*sim.Simulator{}
	for inst, gen := range refs {
		nl, err := designs.Standalone(gen, "ref_"+inst, inst+"/")
		if err != nil {
			return err
		}
		s, err := sim.New(nl)
		if err != nil {
			return err
		}
		refSims[inst] = s
	}
	stim := func(cycle, k int, inst string) bool {
		h := cycle*31 + k*7 + int(inst[1])
		return h%3 == 0 || h%5 == 1
	}
	for cyc := 0; cyc < 60; cyc++ {
		for inst, gen := range refs {
			for k := 0; k < gen.NumInputs(); k++ {
				v := stim(cyc, k, inst)
				if err := refSims[inst].SetInput(fmt.Sprintf("in%d", k), v); err != nil {
					return err
				}
				pad := base.Pads[fmt.Sprintf("%s_in%d", inst, k)]
				if err := devSim.SetInput(pad, v); err != nil {
					return fmt.Errorf("device input %s: %w", pad, err)
				}
			}
		}
		devSim.Step()
		for inst, gen := range refs {
			refSims[inst].Step()
			for k := 0; k < gen.NumOutputs(); k++ {
				want, err := refSims[inst].Output(fmt.Sprintf("out%d", k))
				if err != nil {
					return err
				}
				pad := base.Pads[fmt.Sprintf("%s_out%d", inst, k)]
				got, err := devSim.Output(pad)
				if err != nil {
					return fmt.Errorf("device output %s: %w", pad, err)
				}
				if got != want {
					return fmt.Errorf("cycle %d: %s out%d device=%v ref=%v", cyc, inst, k, got, want)
				}
			}
		}
	}
	return nil
}
