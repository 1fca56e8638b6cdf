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

	// Expand runs to device-order frame indices.
	n := 0
	for _, run := range runs {
		n += max(run.N, 0)
	}
	idx := make([]int, 0, n)
	for _, run := range runs {
		if run.N <= 0 {
			// Match WritePartial: a zero/negative run would otherwise fall out
			// of the expansion and yield a frame-less "valid" stream.
			return nil, fmt.Errorf("bitstream: empty frame run at %v", run.Start)
		}
		if _, err := mem.Frames(run.Start, run.N); err != nil {
			return nil, fmt.Errorf("bitstream: %w", err)
		}
		first := p.FrameIndex(run.Start)
		for i := first; i < first+run.N; i++ {
			idx = append(idx, i)
		}
	}

	// Group the frames by content, each group's frames linked in expansion
	// order (next). A frame finds its group by a hash of its words; groups
	// whose hashes collide are chained and told apart by their words.
	all, _ := mem.Frames(p.FirstFAR(), p.TotalFrames())
	frame := func(j int) []uint32 { return all[idx[j]*fw : (idx[j]+1)*fw] }
	type group struct {
		lead, last, size int // first and last frame (positions in idx), count
		collide          int // next group with the same hash, or -1
	}
	var groups []group
	byHash := make(map[uint64]int, len(idx))
	next := make([]int, len(idx))
	for j := range idx {
		next[j] = -1
		h := frameHash(frame(j))
		head, ok := byHash[h]
		if !ok {
			head = -1
		}
		g := head
		for g >= 0 && !slices.Equal(frame(groups[g].lead), frame(j)) {
			g = groups[g].collide
		}
		if g < 0 {
			g = len(groups)
			byHash[h] = g
			groups = append(groups, group{lead: j, last: j, collide: head})
		} else {
			next[groups[g].last] = j
			groups[g].last = j
		}
		groups[g].size++
	}

	// Upper bound: every frame plus one pad frame per FDRI emission, plus
	// per-frame packet overhead.
	b := newBuilder((len(idx)+len(groups)+len(runs))*fw + 4*len(idx) + 64)
	b.header()
	b.cmd(CmdRCRC)
	b.t1(RegFLR, uint32(fw-1))

	// Replicated groups first (deterministic order: by leader, the group's
	// first frame).
	var repeated []group
	for _, g := range groups {
		if g.size >= mfwrThreshold {
			repeated = append(repeated, g)
		}
	}
	slices.SortFunc(repeated, func(a, b group) int { return idx[a.lead] - idx[b.lead] })
	replicated := make([]bool, p.TotalFrames())
	for _, g := range repeated {
		leader := p.MustFARAt(idx[g.lead])
		b.t1(RegFAR, uint32(leader))
		b.cmd(CmdWCFG)
		if err := b.fdri(mem, FrameRun{Start: leader, N: 1}); err != nil {
			return nil, err
		}
		replicated[idx[g.lead]] = true
		for j := next[g.lead]; j >= 0; j = next[j] {
			b.t1(RegMFWR, uint32(p.MustFARAt(idx[j])))
			replicated[idx[j]] = true
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

// frameHash is FNV-1a over a frame's words, a word at a time.
func frameHash(words []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range words {
		h = (h ^ uint64(w)) * 1099511628211
	}
	return h
}
