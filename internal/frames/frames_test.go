package frames

import (
	"testing"
	"testing/quick"

	"repro/internal/device"
)

func xcv50() *Part { return device.MustByName("XCV50") }

func TestBitRoundTrip(t *testing.T) {
	p := xcv50()
	m := New(p)
	f := func(fi uint16, bit uint16) bool {
		far, err := p.FARAt(int(fi) % p.TotalFrames())
		if err != nil {
			return false
		}
		bc := device.BitCoord{FAR: far, Bit: int(bit) % p.FrameBits()}
		m.SetBit(bc, true)
		if !m.Bit(bc) {
			return false
		}
		m.SetBit(bc, false)
		return !m.Bit(bc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestClearBitsMatchesSetBit pins the word-level ClearBits to one SetBit per
// bit, dirty marking included, over arbitrary ranges of a random frame.
func TestClearBitsMatchesSetBit(t *testing.T) {
	p := xcv50()
	far := device.MakeFAR(device.BlockCLB, p.CLBMajor(2), 7)
	f := func(fill []uint32, a, b uint16) bool {
		words := make([]uint32, p.FrameWords())
		copy(words, fill)
		lo, hi := int(a)%(p.FrameBits()+1), int(b)%(p.FrameBits()+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		got, want := New(p), New(p)
		if got.SetFrame(far, words) != nil || want.SetFrame(far, words) != nil {
			return false
		}
		got.StartTracking()
		want.StartTracking()
		got.ClearBits(far, lo, hi)
		for bit := lo; bit < hi; bit++ {
			want.SetBit(device.BitCoord{FAR: far, Bit: bit}, false)
		}
		return got.Equal(want) && got.FrameDirty(far) == want.FrameDirty(far)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSetFrameLengthCheck(t *testing.T) {
	p := xcv50()
	m := New(p)
	far := device.MakeFAR(device.BlockCLB, 1, 0)
	if err := m.SetFrame(far, make([]uint32, 3)); err == nil {
		t.Fatal("short frame payload accepted")
	}
	payload := make([]uint32, p.FrameWords())
	payload[0] = 0xDEADBEEF
	if err := m.SetFrame(far, payload); err != nil {
		t.Fatal(err)
	}
	if m.Frame(far)[0] != 0xDEADBEEF {
		t.Fatal("frame payload not stored")
	}
}

// TestCloneIsDeep: a clone holds every word of the source, and a write to
// any frame of either leaves the other as it was.
func TestCloneIsDeep(t *testing.T) {
	p := xcv50()
	m := New(p)
	for i := range m.data {
		m.data[i] = uint32(i)*0x9E3779B9 + 1
	}
	c := m.Clone()
	if !c.Equal(m) {
		t.Fatal("clone content differs")
	}
	for i := 0; i < p.TotalFrames(); i++ {
		far, err := p.FARAt(i)
		if err != nil {
			t.Fatal(err)
		}
		c.Frame(far)[0] ^= 1
		if m.Frame(far)[0] == c.Frame(far)[0] {
			t.Fatalf("clone write to frame %v leaked into the original", far)
		}
		m.Frame(far)[1] ^= 1
		if m.Frame(far)[1] == c.Frame(far)[1] {
			t.Fatalf("original write to frame %v leaked into the clone", far)
		}
	}
}

func TestDiffThenSetFrame(t *testing.T) {
	p := xcv50()
	a, b := New(p), New(p)
	bc1 := p.CLBBit(0, 3, 5)
	bc2 := p.CLBBit(7, 10, 400)
	b.SetBit(bc1, true)
	b.SetBit(bc2, true)
	diffs, err := a.Diff(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 2 {
		t.Fatalf("diff frames = %d, want 2 (%v)", len(diffs), diffs)
	}
	for _, f := range diffs {
		if err := a.SetFrame(f, b.Frame(f)); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Equal(b) {
		t.Fatal("copying diff frames should equalise memories")
	}
	if got, _ := a.Diff(b); len(got) != 0 {
		t.Fatal("diff after copy should be empty")
	}
}

func TestDiffAcrossPartsErrors(t *testing.T) {
	a := New(xcv50())
	b := New(device.MustByName("XCV100"))
	if _, err := a.Diff(b); err == nil {
		t.Fatal("cross-part diff should error")
	}
}

func TestNonZeroFrames(t *testing.T) {
	p := xcv50()
	m := New(p)
	if got := m.NonZeroFrames(); len(got) != 0 {
		t.Fatalf("fresh memory has %d non-zero frames", len(got))
	}
	m.SetBit(p.CLBBit(2, 2, 100), true)
	if got := m.NonZeroFrames(); len(got) != 1 {
		t.Fatalf("non-zero frames = %d, want 1", len(got))
	}
}

func TestRegionBasics(t *testing.T) {
	p := xcv50()
	rg := NewRegion(5, 9, 2, 3) // corners swapped on purpose
	if rg != (Region{2, 3, 5, 9}) {
		t.Fatalf("NewRegion did not normalise: %+v", rg)
	}
	if !rg.Valid(p) || rg.Rows() != 4 || rg.Cols() != 7 || rg.CLBs() != 28 {
		t.Fatalf("region geometry wrong: %+v", rg)
	}
	if !rg.Contains(2, 3) || !rg.Contains(5, 9) || rg.Contains(1, 3) || rg.Contains(2, 10) {
		t.Fatal("Contains wrong at boundaries")
	}
	if !FullRegion(p).ContainsRegion(rg) {
		t.Fatal("full region must contain any valid region")
	}
	if rg.ContainsRegion(FullRegion(p)) {
		t.Fatal("sub-region cannot contain the full region")
	}
	if (Region{0, 0, 1, 1}).Overlaps(Region{2, 2, 3, 3}) {
		t.Fatal("disjoint regions reported overlapping")
	}
	if !(Region{0, 0, 2, 2}).Overlaps(Region{2, 2, 3, 3}) {
		t.Fatal("touching regions must overlap")
	}
	if (Region{-1, 0, 0, 0}).Valid(p) || (Region{0, 0, 0, p.Cols}).Valid(p) {
		t.Fatal("out-of-range region reported valid")
	}
}

func TestRegionFARs(t *testing.T) {
	p := xcv50()
	rg := Region{0, 4, 3, 6} // 3 columns
	fars := rg.FARs(p)
	if len(fars) != 3*device.FramesCLBCol {
		t.Fatalf("region FARs = %d, want %d", len(fars), 3*device.FramesCLBCol)
	}
	for _, f := range fars {
		col, ok := p.CLBColOfMajor(f.Major())
		if !ok || col < 4 || col > 6 {
			t.Fatalf("region FAR %v outside columns 4..6", f)
		}
	}
	lo, hi := rg.ColumnSpan(p)
	if lo != p.CLBMajor(4) || hi != p.CLBMajor(6) {
		t.Fatalf("column span = %d..%d", lo, hi)
	}
}
