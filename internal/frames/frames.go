// Package frames models Virtex configuration memory: the complete set of
// configuration frames of one part, addressable by frame address (FAR) and
// bit offset. It is the state that bitstreams write into and that the JBits
// layer and bitgen manipulate.
package frames

import (
	"fmt"
	"slices"

	"repro/internal/device"
)

// Memory holds the configuration state of one part: every frame's payload.
type Memory struct {
	Part *Part
	// data is flat storage: frame i (device order) occupies words
	// [i*FrameWords, (i+1)*FrameWords).
	data []uint32
	// dirty, when non-nil, is a per-frame bitset of frames whose content has
	// changed since tracking started (see dirty.go). Only the setter APIs
	// (SetBit, ClearBits, SetFrame, Clear, CopyFrames) maintain it; writes
	// through the aliasing Frame slice are invisible to tracking.
	dirty []uint64
}

// Part aliases device.Part so callers of this package read naturally.
type Part = device.Part

// New returns an all-zero configuration memory for the part (the state of a
// real device after the configuration-reset that precedes a full download).
func New(p *Part) *Memory {
	return &Memory{Part: p, data: make([]uint32, p.TotalFrames()*p.FrameWords())}
}

// Clone returns a deep copy of the memory, without dirty tracking. It copies
// the frames into fresh storage without zeroing it first.
func (m *Memory) Clone() *Memory {
	return &Memory{Part: m.Part, data: slices.Clone(m.data)}
}

// Frame returns the payload of the addressed frame. The slice aliases the
// memory: writes through it modify the memory.
func (m *Memory) Frame(f device.FAR) []uint32 {
	i := m.Part.FrameIndex(f)
	fw := m.Part.FrameWords()
	return m.data[i*fw : (i+1)*fw]
}

// SetFrame replaces the payload of the addressed frame. It returns an error
// if the payload length does not match the part's frame length.
func (m *Memory) SetFrame(f device.FAR, words []uint32) error {
	if len(words) != m.Part.FrameWords() {
		return fmt.Errorf("frames: frame payload %d words, want %d", len(words), m.Part.FrameWords())
	}
	dst := m.Frame(f)
	if m.dirty != nil && !wordsEqual(dst, words) {
		m.markDirty(m.Part.FrameIndex(f))
	}
	copy(dst, words)
	return nil
}

// Bit reads one configuration bit.
func (m *Memory) Bit(bc device.BitCoord) bool {
	w := m.Frame(bc.FAR)
	return w[bc.Bit/32]>>(31-bc.Bit%32)&1 == 1
}

// SetBit writes one configuration bit.
func (m *Memory) SetBit(bc device.BitCoord, v bool) {
	i := m.Part.FrameIndex(bc.FAR)
	fw := m.Part.FrameWords()
	w := m.data[i*fw : (i+1)*fw]
	mask := uint32(1) << (31 - bc.Bit%32)
	word := &w[bc.Bit/32]
	old := *word
	if v {
		*word |= mask
	} else {
		*word &^= mask
	}
	if m.dirty != nil && *word != old {
		m.markDirty(i)
	}
}

// ClearBits zeroes bits [lo, hi) of the addressed frame, numbered as in
// device.BitCoord, a word at a time. Like SetBit, it marks the frame dirty
// only if a bit changed.
func (m *Memory) ClearBits(f device.FAR, lo, hi int) {
	i := m.Part.FrameIndex(f)
	fw := m.Part.FrameWords()
	if lo < 0 || lo > hi || hi > fw*32 {
		panic(fmt.Sprintf("frames: bit range [%d, %d) outside a %d-word frame", lo, hi, fw))
	}
	w := m.data[i*fw : (i+1)*fw]
	var changed uint32
	for k := lo / 32; 32*k < hi; k++ {
		// Frame bits run from each word's MSB down (bit b is bit 31-b%32
		// of word b/32): keep the word's bits from lo on, drop those from
		// hi on.
		mask := (^uint32(0) >> max(lo-32*k, 0)) &^ (^uint32(0) >> min(hi-32*k, 32))
		changed |= w[k] & mask
		w[k] &^= mask
	}
	if m.dirty != nil && changed != 0 {
		m.markDirty(i)
	}
}

// Clear zeroes the whole memory.
func (m *Memory) Clear() {
	if m.dirty != nil {
		fw := m.Part.FrameWords()
		for f := 0; f < m.Part.TotalFrames(); f++ {
			for _, w := range m.data[f*fw : (f+1)*fw] {
				if w != 0 {
					m.markDirty(f)
					break
				}
			}
		}
	}
	for i := range m.data {
		m.data[i] = 0
	}
}

// Equal reports whether two memories (same part) hold identical state.
func (m *Memory) Equal(o *Memory) bool {
	if m.Part != o.Part || len(m.data) != len(o.data) {
		return false
	}
	for i, w := range m.data {
		if o.data[i] != w {
			return false
		}
	}
	return true
}

// FrameEqual reports whether one frame matches between two memories.
func (m *Memory) FrameEqual(o *Memory, f device.FAR) bool {
	a, b := m.Frame(f), o.Frame(f)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Diff returns the addresses of all frames that differ between m and o, in
// device order. It returns an error if the memories are for different parts.
func (m *Memory) Diff(o *Memory) ([]device.FAR, error) {
	if m.Part != o.Part {
		return nil, fmt.Errorf("frames: diff across parts %s vs %s", m.Part.Name, o.Part.Name)
	}
	var diffs []device.FAR
	f := m.Part.FirstFAR()
	for {
		if !m.FrameEqual(o, f) {
			diffs = append(diffs, f)
		}
		next, ok := m.Part.NextFAR(f)
		if !ok {
			return diffs, nil
		}
		f = next
	}
}

// CopyFrames copies the addressed frames from src into m.
func (m *Memory) CopyFrames(src *Memory, fars []device.FAR) error {
	if m.Part != src.Part {
		return fmt.Errorf("frames: copy across parts %s vs %s", m.Part.Name, src.Part.Name)
	}
	for _, f := range fars {
		dst := m.Frame(f)
		s := src.Frame(f)
		if m.dirty != nil && !wordsEqual(dst, s) {
			m.markDirty(m.Part.FrameIndex(f))
		}
		copy(dst, s)
	}
	return nil
}

func wordsEqual(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NonZeroFrames returns the addresses of all frames with any bit set.
func (m *Memory) NonZeroFrames() []device.FAR {
	var out []device.FAR
	f := m.Part.FirstFAR()
	for {
		zero := true
		for _, w := range m.Frame(f) {
			if w != 0 {
				zero = false
				break
			}
		}
		if !zero {
			out = append(out, f)
		}
		next, ok := m.Part.NextFAR(f)
		if !ok {
			return out
		}
		f = next
	}
}
