// Package frames models Virtex configuration memory: the complete set of
// configuration frames of one part, addressable by frame address (FAR) and
// bit offset. It is the state that bitstreams write into and that the JBits
// layer and bitgen manipulate.
//
// Frames are stored in device order, the order the configuration port's FAR
// auto-increment visits them (device.Part.FrameIndex). A run of N frames
// from one address, the unit of an FDRI write or an FDRO read, is therefore
// one contiguous slice of storage: Frames returns it and SetFrames writes it.
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
	// (SetBit, ClearBits, SetFrames, SetFrame, Clear) maintain it; writes
	// through the aliasing Frame and Frames slices are invisible to tracking.
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

// Frames returns the n frames from start in device order, the frames a
// run of n FDRI or FDRO frames from start visits, as one slice of
// n*FrameWords words. The slice aliases the memory: writes through it modify
// the memory. It returns an error if start is not a frame of the part, if n
// is negative, or if the run passes the last frame.
func (m *Memory) Frames(start device.FAR, n int) ([]uint32, error) {
	if !m.Part.ValidFAR(start) {
		return nil, fmt.Errorf("frames: run starts at invalid %v for %s", start, m.Part.Name)
	}
	i := m.Part.FrameIndex(start)
	if n < 0 || i+n > m.Part.TotalFrames() {
		return nil, fmt.Errorf("frames: run of %d frames from %v overruns %s", n, start, m.Part.Name)
	}
	fw := m.Part.FrameWords()
	return m.data[i*fw : (i+n)*fw : (i+n)*fw], nil
}

// SetFrames writes whole frames from start in device order: words holds
// len(words)/FrameWords frame payloads. Each frame whose content changes is
// marked dirty. On error (a partial frame, or a run Frames rejects) nothing
// is written.
func (m *Memory) SetFrames(start device.FAR, words []uint32) error {
	fw := m.Part.FrameWords()
	if len(words)%fw != 0 {
		return fmt.Errorf("frames: payload of %d words is not whole %d-word frames", len(words), fw)
	}
	dst, err := m.Frames(start, len(words)/fw)
	if err != nil {
		return err
	}
	if m.dirty != nil {
		first := m.Part.FrameIndex(start)
		for k := 0; k < len(words); k += fw {
			if !slices.Equal(dst[k:k+fw], words[k:k+fw]) {
				m.markDirty(first + k/fw)
			}
		}
	}
	copy(dst, words)
	return nil
}

// SetFrame replaces the payload of the addressed frame: SetFrames of one
// frame. It returns an error if the payload length does not match the
// part's frame length or f is not a frame of the part.
func (m *Memory) SetFrame(f device.FAR, words []uint32) error {
	if len(words) != m.Part.FrameWords() {
		return fmt.Errorf("frames: frame payload %d words, want %d", len(words), m.Part.FrameWords())
	}
	return m.SetFrames(f, words)
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
			if nonZero(m.data[f*fw : (f+1)*fw]) {
				m.markDirty(f)
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
	return slices.Equal(m.Frame(f), o.Frame(f))
}

// Diff returns the addresses of all frames that differ between m and o, in
// device order. It returns an error if the memories are for different parts.
func (m *Memory) Diff(o *Memory) ([]device.FAR, error) {
	if m.Part != o.Part {
		return nil, fmt.Errorf("frames: diff across parts %s vs %s", m.Part.Name, o.Part.Name)
	}
	var diffs []device.FAR
	fw := m.Part.FrameWords()
	for i := 0; i < m.Part.TotalFrames(); i++ {
		if !slices.Equal(m.data[i*fw:(i+1)*fw], o.data[i*fw:(i+1)*fw]) {
			diffs = append(diffs, m.Part.MustFARAt(i))
		}
	}
	return diffs, nil
}

// NonZeroFrames returns the addresses of all frames with any bit set, in
// device order.
func (m *Memory) NonZeroFrames() []device.FAR {
	var out []device.FAR
	fw := m.Part.FrameWords()
	for i := 0; i < m.Part.TotalFrames(); i++ {
		if nonZero(m.data[i*fw : (i+1)*fw]) {
			out = append(out, m.Part.MustFARAt(i))
		}
	}
	return out
}

func nonZero(words []uint32) bool {
	for _, w := range words {
		if w != 0 {
			return true
		}
	}
	return false
}
