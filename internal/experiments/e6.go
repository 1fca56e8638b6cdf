package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/flow"
	"repro/internal/jbitsdiff"
	"repro/internal/parbit"
)

// E6 reproduces the §2.3 related-work comparison: deploying one module
// variant with JPG versus the PARBIT and JBitsDiff methodologies. JPG needs
// only a small constrained CAD run per variant; the bitstream-transforming
// tools each need a complete re-implementation of the full design first.
func E6(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	part, err := cfg.cadPart()
	if err != nil {
		return nil, err
	}
	baseGen := designs.Counter{Bits: 6}
	varGen := designs.LFSR{Bits: 6, Taps: []int{5, 2}}
	otherGen := designs.SBoxBank{N: 6, Seed: 3}

	base, err := flow.BuildBase(ctx, part, []designs.Instance{
		{Prefix: "u1/", Gen: baseGen},
		{Prefix: "u2/", Gen: otherGen},
	}, cfg.flowOpts(cfg.Seed))
	if err != nil {
		return nil, err
	}
	rg := base.Regions["u1/"]

	t := &Table{
		ID:    "E6",
		Title: fmt.Sprintf("deploying one module variant: JPG vs PARBIT vs JBitsDiff on %s", part.Name),
		Claim: "JPG derives partials from the module's own CAD run; PARBIT and JBitsDiff " +
			"operate on bitstreams and need a full-design implementation per variant",
		Columns: []string{"tool", "prerequisite CAD", "tool time", "partial bytes", "frames", "functional"},
	}

	check := func(partialBS []byte) string {
		board, err := cfg.board(part)
		if err != nil {
			return "FAIL: " + err.Error()
		}
		if _, err := board.DownloadCtx(ctx, base.Bitstream); err != nil {
			return "FAIL: " + err.Error()
		}
		if _, err := board.DownloadCtx(ctx, partialBS); err != nil {
			return "FAIL: " + err.Error()
		}
		if err := functionalCheck(base, varGen, otherGen, board.Readback()); err != nil {
			return "FAIL: " + err.Error()
		}
		return "PASS"
	}

	// JPG: constrained variant CAD + replay through the base bitstream.
	variant, err := flow.BuildVariant(ctx, base, "u1/", varGen, cfg.flowOpts(cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	proj, err := core.NewProject(base.Bitstream)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	m, err := proj.AddModule("u1_variant", variant.XDL, variant.UCF)
	if err != nil {
		return nil, err
	}
	jpgRes, err := proj.GeneratePartialCtx(ctx, m, cfg.genOpts(core.GenerateOptions{Strict: true}))
	if err != nil {
		return nil, err
	}
	jpgTool := time.Since(t0)
	t.AddRow("JPG", fullFmt(variant.Times.Total()), fullFmt(jpgTool),
		len(jpgRes.Bitstream), len(jpgRes.FARs), check(jpgRes.Bitstream))

	// PARBIT and JBitsDiff both need the full design rebuilt with the
	// variant in place, under the same floorplan (their methodology assumes
	// the rebuilt design keeps the original regions and pinout).
	rebuilt, err := flow.BuildBaseWith(ctx, part, []designs.Instance{
		{Prefix: "u1/", Gen: varGen},
		{Prefix: "u2/", Gen: otherGen},
	}, base.Cons, base.Regions, cfg.flowOpts(cfg.Seed))
	if err != nil {
		return nil, err
	}

	t0 = time.Now()
	pbBS, err := parbit.Transform(rebuilt.Bitstream, parbit.Options{
		Part: part.Name, StartCol: rg.C1 + 1, EndCol: rg.C2 + 1,
	})
	if err != nil {
		return nil, err
	}
	pbTool := time.Since(t0)
	t.AddRow("PARBIT", fullFmt(rebuilt.Times.Total()), fullFmt(pbTool),
		len(pbBS), rg.Cols()*device.FramesCLBCol, check(pbBS))

	t0 = time.Now()
	jdCore, err := jbitsdiff.Extract(base.Bitstream, rebuilt.Bitstream)
	if err != nil {
		return nil, err
	}
	jdTool := time.Since(t0)
	t.AddRow("JBitsDiff", fullFmt(rebuilt.Times.Total()), fullFmt(jdTool),
		len(jdCore.Bitstream), len(jdCore.FARs), check(jdCore.Bitstream))

	t.Note("PARBIT/JBitsDiff prerequisite is a full-design CAD run per variant (%.1fx the", float64(rebuilt.Times.Total())/float64(variant.Times.Total()))
	t.Note("module-only run JPG needs); JBitsDiff may also carry frames of other modules")
	t.Note("perturbed by the rebuild — a known hazard of diff-based extraction")
	return t, nil
}
