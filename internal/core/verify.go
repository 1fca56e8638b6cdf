package core

import (
	"context"
	"fmt"

	"repro/internal/bitlint"
	"repro/internal/device"
	"repro/internal/obs"
)

// Partial-bitstream verification (GenerateOptions.Verify): before a partial
// leaves the tool, the independent verifier re-derives what downloading it
// onto the current base configuration would do and the result is checked
// against what the generation claims. This is the decode-side counterpart of
// VerifyRegion's readback check — no board required.

var mVerifyRuns = obs.GetCounter("core.verify_runs")

// verifyResult lints a generated partial against the project's base
// configuration and the result's declared frame set.
func (p *Project) verifyResult(ctx context.Context, m *Module, res *Result) error {
	_, sp := obs.Start(ctx, "core.verify")
	sp.SetStr("module", m.Name)
	rep, err := bitlint.VerifyPartial(p.Base, res.Bitstream)
	if err == nil {
		err = p.checkDeclaredFrames(rep, res)
	}
	if rep != nil {
		sp.SetInt("findings", int64(len(rep.Findings)))
		sp.SetInt("frames", int64(rep.FramesWritten))
	}
	sp.EndErr(err)
	if err != nil {
		obs.CountError("verify")
		return fmt.Errorf("core: partial verification for %s: %w", m.Name, err)
	}
	mVerifyRuns.Inc()
	return nil
}

// checkDeclaredFrames requires the decoded partial to change the base only
// within the frames the result declares it carries.
func (p *Project) checkDeclaredFrames(rep *bitlint.Report, res *Result) error {
	if rep.Frames == nil {
		return fmt.Errorf("no reconstructed image")
	}
	declared := make(map[device.FAR]bool, len(res.FARs))
	for _, f := range res.FARs {
		declared[f] = true
	}
	diffs, err := rep.Frames.Diff(p.Base)
	if err != nil {
		return err
	}
	for _, f := range diffs {
		if !declared[f] {
			return fmt.Errorf("partial rewrites undeclared frame %v", f)
		}
	}
	return nil
}
