package bitlint

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/device"
	"repro/internal/frames"
)

// Differential verification: bitlint's independent reconstruction is only
// trustworthy evidence if it is checked against a second, unrelated decoder.
// The functions here decode a stream twice — once with bitlint's decoder,
// once with the port VM (bitstream.Apply) — and require the two frame images
// to be byte-identical, then extend the same argument to splices: applying a
// partial on top of a base must equal the full rebuild.

// maxDiffReported bounds how many differing frames a differential finding
// enumerates.
const maxDiffReported = 4

// lintOnly lists error codes that are deliberately stricter than the port VM:
// the device scans past pre-sync junk and treats a sync-less stream as a
// no-op, but a tool that emits one has a bug, so bitlint errors anyway. These
// codes are excluded from the port-acceptance differential.
var lintOnly = map[string]bool{
	"no-sync":          true,
	"junk-before-sync": true,
}

// portVisibleErrors counts the error findings the port VM is expected to
// reject on too.
func portVisibleErrors(rep *Report) int {
	n := 0
	for _, f := range rep.Errors() {
		if !lintOnly[f.Code] {
			n++
		}
	}
	return n
}

// Verify independently decodes a full bitstream and differentially compares
// the reconstruction against the port VM. The returned report carries the
// findings of both the lint pass and the comparison; rep.Err() is nil iff
// the stream is safe.
func Verify(full []byte) (*Report, error) {
	p, err := prescanPart(full)
	if err != nil {
		return nil, err
	}
	rep := DecodeFor(p, full)
	ref := frames.New(p)
	diffApply(rep, ref, full)
	mVerifies.Inc()
	return rep, nil
}

// VerifyFor is Verify with the target part pinned by the caller instead of
// inferred from the stream's FLR write.
func VerifyFor(p *device.Part, full []byte) (*Report, error) {
	rep := DecodeFor(p, full)
	diffApply(rep, frames.New(p), full)
	mVerifies.Inc()
	return rep, nil
}

// VerifyPartial checks a partial bitstream against the base configuration it
// will be downloaded onto: bitlint overlays the partial on a copy of base,
// the port VM does the same, and the two must agree frame for frame. The
// report keeps bitlint's copy; the port's is scratch storage, released once
// compared.
func VerifyPartial(base *frames.Memory, partial []byte) (*Report, error) {
	rep := DecodeOnto(base, partial)
	ref := base.Scratch()
	diffApply(rep, ref, partial)
	ref.Release()
	if rep.Started {
		rep.add(SevError, "partial-starts", -1,
			"partial bitstream issues the start-up command")
	}
	mVerifies.Inc()
	return rep, rep.Err()
}

// VerifySplice proves splice-equals-rebuild from raw bytes alone: decoding
// base and overlaying partial must reproduce exactly the image full decodes
// to. This is the paper's safety claim for JPG-generated partials — the
// spliced device state is indistinguishable from a full reconfiguration.
func VerifySplice(base, partial, full []byte) (*Report, error) {
	p, err := prescanPart(base)
	if err != nil {
		return nil, fmt.Errorf("bitlint: base: %w", err)
	}
	baseRep := DecodeFor(p, base)
	diffApply(baseRep, frames.New(p), base)
	if err := baseRep.Err(); err != nil {
		return baseRep, fmt.Errorf("bitlint: base stream unsafe: %w", err)
	}
	wantRep := DecodeFor(p, full)
	diffApply(wantRep, frames.New(p), full)
	if err := wantRep.Err(); err != nil {
		return wantRep, fmt.Errorf("bitlint: full stream unsafe: %w", err)
	}
	rep, err := VerifyPartial(baseRep.Frames, partial)
	if err != nil {
		return rep, err
	}
	diffWant(rep, wantRep.Frames, "full-rebuild")
	return rep, rep.Err()
}

// diffApply runs the port VM over bs into ref and compares against the
// report's independent reconstruction.
func diffApply(rep *Report, ref *frames.Memory, bs []byte) {
	stats, err := bitstream.Apply(ref, bs)
	if err != nil {
		// The port rejects outright what bitlint downgraded to findings; the
		// differential only holds when both decoders accepted the stream.
		if len(rep.Errors()) == 0 {
			rep.add(SevError, "port-divergence", -1,
				"port VM rejects a stream bitlint found no errors in: %v", err)
		}
		return
	}
	if portVisibleErrors(rep) > 0 {
		rep.add(SevError, "port-divergence", -1,
			"bitlint found errors in a stream the port VM accepts")
		return
	}
	if stats.FramesWritten != rep.FramesWritten {
		rep.add(SevError, "stats-divergence", -1,
			"port VM wrote %d frames, bitlint %d", stats.FramesWritten, rep.FramesWritten)
	}
	if stats.Started != rep.Started {
		rep.add(SevError, "stats-divergence", -1,
			"port VM started=%v, bitlint started=%v", stats.Started, rep.Started)
	}
	diffImage(rep, ref, "port-vm")
}

// diffWant compares the report's reconstruction against an externally
// claimed target image.
func diffWant(rep *Report, want *frames.Memory, who string) {
	diffImage(rep, want, who)
}

func diffImage(rep *Report, want *frames.Memory, who string) {
	if rep.Frames == nil {
		rep.add(SevError, "no-image", -1, "no reconstructed image to compare against %s", who)
		return
	}
	if rep.Frames.Equal(want) {
		return
	}
	diffs, err := rep.Frames.Diff(want)
	if err != nil {
		rep.add(SevError, "differential-mismatch", -1, "cannot diff against %s: %v", who, err)
		return
	}
	detail := fmt.Sprintf("%d frame(s) differ from %s:", len(diffs), who)
	for i, f := range diffs {
		if i == maxDiffReported {
			detail += " …"
			break
		}
		detail += fmt.Sprintf(" %v", f)
	}
	rep.add(SevError, "differential-mismatch", -1, "%s", detail)
}
