package flow

import (
	"context"
	"fmt"

	"repro/internal/bitlint"
	"repro/internal/obs"
)

// Post-bitgen verification (Options.Verify): every bitstream the flow emits
// is re-decoded by the independent verifier and differentially checked
// against the port VM before the build is allowed to succeed. The stage is
// opt-in because it re-reads the whole bitstream; it never changes what is
// built, only whether an unsafe stream is allowed out of the flow.

var mVerifyRuns = obs.GetCounter("flow.verify_runs")

// verifyBitstream lints bs when the options ask for it. A full bitstream is
// expected to issue the start-up sequence; partials must not (the callers on
// the partial path use bitlint.VerifyPartial directly).
func verifyBitstream(ctx context.Context, opts Options, bs []byte) error {
	if !opts.Verify {
		return nil
	}
	_, sp := obs.Start(ctx, "verify")
	rep, err := bitlint.Verify(bs)
	if err == nil {
		err = rep.Err()
	}
	endVerify(sp, rep, err)
	if err != nil {
		return fmt.Errorf("flow: bitstream verification failed: %w", err)
	}
	return nil
}

// verifySplice proves splice-equals-rebuild for an incremental edit: the
// previous revision's full bitstream plus the emitted delta must reconstruct
// exactly the state the new full bitstream does.
func verifySplice(ctx context.Context, opts Options, baseFull, partial, full []byte) error {
	if !opts.Verify || len(baseFull) == 0 || len(partial) == 0 {
		return nil
	}
	_, sp := obs.Start(ctx, "verify")
	sp.SetBool("splice", true)
	rep, err := bitlint.VerifySplice(baseFull, partial, full)
	if err == nil && rep != nil {
		err = rep.Err()
	}
	endVerify(sp, rep, err)
	if err != nil {
		return fmt.Errorf("flow: splice verification failed: %w", err)
	}
	return nil
}

// endVerify ends a verify span with the report's finding and frame counts,
// and counts the run or its failure.
func endVerify(sp *obs.Span, rep *bitlint.Report, err error) {
	if rep != nil {
		sp.SetInt("findings", int64(len(rep.Findings)))
		sp.SetInt("frames", int64(rep.FramesWritten))
	}
	sp.EndErr(err)
	if err != nil {
		obs.CountError("verify")
		return
	}
	mVerifyRuns.Inc()
}
