package frames

import (
	"testing"

	"repro/internal/device"
)

func TestDirtyTrackingSetBit(t *testing.T) {
	p := device.MustByName("XCV50")
	m := New(p)
	if m.Tracking() {
		t.Fatal("fresh memory is tracking")
	}
	bc := device.BitCoord{FAR: device.MakeFAR(device.BlockCLB, p.CLBMajor(3), 5), Bit: 17}

	// Untracked writes never mark anything.
	m.SetBit(bc, true)
	if m.DirtyCount() != 0 || m.DirtyFARs() != nil {
		t.Fatal("untracked write produced dirty state")
	}

	m.StartTracking()
	m.SetBit(bc, true) // idempotent: already set
	if m.DirtyCount() != 0 {
		t.Fatal("idempotent write marked a frame dirty")
	}
	m.SetBit(bc, false)
	if m.DirtyCount() != 1 || !m.FrameDirty(bc.FAR) {
		t.Fatalf("changing write not tracked: %d dirty", m.DirtyCount())
	}
	if fars := m.DirtyFARs(); len(fars) != 1 || fars[0] != bc.FAR {
		t.Fatalf("dirty frames %v, want [%v]", fars, bc.FAR)
	}

	m.ResetDirty()
	if m.DirtyCount() != 0 || !m.Tracking() {
		t.Fatal("ResetDirty must clear the set and keep tracking")
	}
	m.StopTracking()
	if m.Tracking() {
		t.Fatal("StopTracking left tracking on")
	}
}

func TestDirtyTrackingSetFrameAndClear(t *testing.T) {
	p := device.MustByName("XCV50")
	m := New(p)
	far := device.MakeFAR(device.BlockCLB, p.CLBMajor(0), 0)
	words := make([]uint32, p.FrameWords())
	words[0] = 0xdeadbeef
	if err := m.SetFrame(far, words); err != nil {
		t.Fatal(err)
	}

	m.StartTracking()
	if err := m.SetFrame(far, words); err != nil { // identical payload
		t.Fatal(err)
	}
	if m.DirtyCount() != 0 {
		t.Fatal("identical SetFrame marked dirty")
	}
	words[1] = 1
	if err := m.SetFrame(far, words); err != nil {
		t.Fatal(err)
	}
	if m.DirtyCount() != 1 {
		t.Fatal("changing SetFrame not tracked")
	}

	m.ResetDirty()
	m.Clear()
	if !m.FrameDirty(far) {
		t.Fatal("Clear did not mark the non-zero frame dirty")
	}
	// Only frames that held content are dirty.
	if got := m.DirtyCount(); got != 1 {
		t.Fatalf("Clear marked %d frames, want 1", got)
	}
}

// TestCloneDropsTracking: a clone starts untracked, and writes to it touch
// neither its own nor the source's dirty set.
func TestCloneDropsTracking(t *testing.T) {
	p := device.MustByName("XCV50")
	m := New(p)
	m.StartTracking()
	m.SetBit(device.BitCoord{FAR: p.FirstFAR(), Bit: 0}, true)
	c := m.Clone()
	if c.Tracking() {
		t.Fatal("clone inherited tracking")
	}
	if !c.Equal(m) {
		t.Fatal("clone content differs")
	}
	other, err := p.FARAt(p.TotalFrames() - 1)
	if err != nil {
		t.Fatal(err)
	}
	c.SetBit(device.BitCoord{FAR: other, Bit: 0}, true)
	if c.DirtyCount() != 0 || m.DirtyCount() != 1 || m.FrameDirty(other) {
		t.Fatalf("clone write tracked: clone %d, source %d dirty", c.DirtyCount(), m.DirtyCount())
	}
}
