package bitstream

import (
	"fmt"
	"slices"

	"repro/internal/frames"
)

// Compressed partial bitstreams: a forward-port of the Virtex-II MFWR
// (multiple frame write) optimisation onto the Virtex protocol. Partial
// bitstreams for column regions carry many identical frames (unused minors
// are all-zero); the MFWR register writes the configuration logic's
// last-committed frame to an explicitly addressed FAR without resending the
// payload, so each repeated frame costs two words instead of a full frame.
//
// The writer groups the requested frames by content: each group's payload is
// sent once through FDRI, then replicated with one MFWR write per extra
// frame. Groups too small to profit are coalesced into ordinary FDRI runs.

// RegMFWR is the multiple-frame-write register (an extension register; the
// 2002-era Virtex protocol reserves the slot).
const RegMFWR = 10

// mfwrThreshold is the duplicate-group size at which MFWR replication beats
// plain runs (a broken run costs roughly a frame of overhead).
const mfwrThreshold = 3

// WritePartialCompressed serialises the frame runs as a compressed partial
// bitstream. Decoding requires a port that implements RegMFWR (this
// package's Port does); WritePartial remains the baseline-compatible form.
func WritePartialCompressed(mem *frames.Memory, runs []FrameRun) ([]byte, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("bitstream: compressed partial with no frames")
	}
	p := mem.Part
	fw := p.FrameWords()

	// Expand runs to device-order frame indices and group them by frame
	// content, each group in expansion order.
	var idx []int
	groups := map[string][]int{}
	for _, run := range runs {
		if run.N <= 0 {
			// Match WritePartial: a zero/negative run would otherwise fall out
			// of the expansion and yield a frame-less "valid" stream.
			return nil, fmt.Errorf("bitstream: empty frame run at %v", run.Start)
		}
		data, err := mem.Frames(run.Start, run.N)
		if err != nil {
			return nil, fmt.Errorf("bitstream: %w", err)
		}
		first := p.FrameIndex(run.Start)
		for k := 0; k < run.N; k++ {
			key := frameKey(data[k*fw : (k+1)*fw])
			groups[key] = append(groups[key], first+k)
			idx = append(idx, first+k)
		}
	}

	// Upper bound: every frame plus one pad frame per FDRI emission, plus
	// per-frame packet overhead.
	b := newBuilder((len(idx)+len(groups)+len(runs))*fw + 4*len(idx) + 64)
	b.header()
	b.cmd(CmdRCRC)
	b.t1(RegFLR, uint32(fw-1))

	// Replicated groups first (deterministic order: by leader, the group's
	// first frame).
	var repeated [][]int
	for _, g := range groups {
		if len(g) >= mfwrThreshold {
			repeated = append(repeated, g)
		}
	}
	slices.SortFunc(repeated, func(a, b []int) int { return a[0] - b[0] })
	replicated := make([]bool, p.TotalFrames())
	for _, g := range repeated {
		leader := p.MustFARAt(g[0])
		b.t1(RegFAR, uint32(leader))
		b.cmd(CmdWCFG)
		if err := b.fdri(mem, FrameRun{Start: leader, N: 1}); err != nil {
			return nil, err
		}
		replicated[g[0]] = true
		for _, i := range g[1:] {
			b.t1(RegMFWR, uint32(p.MustFARAt(i)))
			replicated[i] = true
		}
	}

	// Remaining frames as plain contiguous runs.
	var rest []int
	for _, i := range idx {
		if !replicated[i] {
			rest = append(rest, i)
		}
	}
	for _, run := range runsForIndices(p, rest) {
		b.t1(RegFAR, uint32(run.Start))
		b.cmd(CmdWCFG)
		if err := b.fdri(mem, run); err != nil {
			return nil, err
		}
	}

	b.cmd(CmdLFRM)
	b.writeCRC()
	b.cmd(CmdDESYNCH)
	b.nop(4)
	return b.finish(), nil
}

func frameKey(words []uint32) string {
	buf := make([]byte, 4*len(words))
	for i, w := range words {
		buf[4*i] = byte(w >> 24)
		buf[4*i+1] = byte(w >> 16)
		buf[4*i+2] = byte(w >> 8)
		buf[4*i+3] = byte(w)
	}
	return string(buf)
}
