package frames

import "repro/internal/device"

// Dirty-frame tracking: an opt-in per-frame bitset recording which frames'
// contents have changed since tracking started (or was last reset). This is
// what lets the incremental flow emit exactly the touched frame runs after a
// small edit without diffing the whole memory against a snapshot — the same
// granularity the Virtex configuration port itself works at.
//
// Tracking is maintained by the setter APIs (SetBit, ClearBits, SetFrames,
// SetFrame, Clear), which mark a frame only when its content actually
// changes; an idempotent rewrite leaves it clean. Writes through the
// aliasing slices returned by Frame and Frames bypass tracking — the JBits
// layer writes exclusively through SetBit and ClearBits, and bitgen through
// JBits, so the CAD flow is fully covered.

// StartTracking enables dirty-frame tracking with an empty dirty set. It is
// idempotent on an already-tracking memory except that the dirty set is
// reset.
func (m *Memory) StartTracking() {
	words := (m.Part.TotalFrames() + 63) / 64
	if m.dirty == nil || len(m.dirty) != words {
		m.dirty = make([]uint64, words)
		return
	}
	m.ResetDirty()
}

// StopTracking disables tracking and discards the dirty set.
func (m *Memory) StopTracking() { m.dirty = nil }

// Tracking reports whether dirty-frame tracking is enabled.
func (m *Memory) Tracking() bool { return m.dirty != nil }

// ResetDirty clears the dirty set without disabling tracking.
func (m *Memory) ResetDirty() {
	for i := range m.dirty {
		m.dirty[i] = 0
	}
}

func (m *Memory) markDirty(frame int) {
	m.dirty[frame>>6] |= 1 << (frame & 63)
}

// FrameDirty reports whether the addressed frame has changed since tracking
// started. It returns false when tracking is disabled.
func (m *Memory) FrameDirty(f device.FAR) bool {
	if m.dirty == nil {
		return false
	}
	i := m.Part.FrameIndex(f)
	return m.dirty[i>>6]>>(i&63)&1 == 1
}

// DirtyCount returns the number of dirty frames.
func (m *Memory) DirtyCount() int {
	n := 0
	for _, w := range m.dirty {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// DirtyFARs returns the addresses of all dirty frames in device order. It
// returns nil when tracking is disabled or nothing changed.
func (m *Memory) DirtyFARs() []device.FAR {
	if m.dirty == nil {
		return nil
	}
	var out []device.FAR
	total := m.Part.TotalFrames()
	for i := 0; i < total; i++ {
		if m.dirty[i>>6]>>(i&63)&1 == 1 {
			out = append(out, m.Part.MustFARAt(i))
		}
	}
	return out
}
