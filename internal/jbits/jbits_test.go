package jbits

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/frames"
)

func newJB(name string) *JBits {
	return New(frames.New(device.MustByName(name)))
}

func TestLUTRoundTrip(t *testing.T) {
	j := newJB("XCV50")
	f := func(r, c uint8, slice, lut uint8, v LUTValue) bool {
		row, col := int(r)%j.Part.Rows, int(c)%j.Part.Cols
		s, l := int(slice)%2, int(lut)%2
		if err := j.SetLUT(row, col, s, l, v); err != nil {
			return false
		}
		got, err := j.GetLUT(row, col, s, l)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLUTsIndependent(t *testing.T) {
	j := newJB("XCV50")
	// Writing one LUT must not disturb the other three in the CLB or
	// neighbours.
	if err := j.SetLUT(3, 3, 0, device.LUTF, 0xFFFF); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct{ r, c, s, l int }{
		{3, 3, 0, device.LUTG}, {3, 3, 1, device.LUTF}, {3, 3, 1, device.LUTG},
		{3, 4, 0, device.LUTF}, {2, 3, 0, device.LUTF},
	} {
		v, err := j.GetLUT(probe.r, probe.c, probe.s, probe.l)
		if err != nil || v != 0 {
			t.Fatalf("LUT at %+v disturbed: %04x, %v", probe, v, err)
		}
	}
}

func TestBoundsChecking(t *testing.T) {
	j := newJB("XCV50")
	if err := j.SetLUT(j.Part.Rows, 0, 0, device.LUTF, 0); err == nil {
		t.Fatal("row out of range accepted")
	}
	if err := j.SetLUT(0, 0, 2, device.LUTF, 0); err == nil {
		t.Fatal("slice out of range accepted")
	}
	if err := j.SetSliceCtl(0, 0, 0, 16, true); err == nil {
		t.Fatal("ctl out of range accepted")
	}
	if _, err := j.GetLUT(0, -1, 0, 0); err == nil {
		t.Fatal("negative col accepted")
	}
	if err := j.SetPadMode(device.Pad{Edge: device.EdgeL, Index: 999}, 0, true); err == nil {
		t.Fatal("bad pad accepted")
	}
	if err := j.ClearRegion(frames.Region{R1: 0, C1: 0, R2: 99, C2: 0}); err == nil {
		t.Fatal("bad region accepted")
	}
}

func TestSliceCtlRoundTrip(t *testing.T) {
	j := newJB("XCV50")
	for ctl := 0; ctl < 16; ctl++ {
		if err := j.SetSliceCtl(1, 2, 1, ctl, true); err != nil {
			t.Fatal(err)
		}
		v, err := j.GetSliceCtl(1, 2, 1, ctl)
		if err != nil || !v {
			t.Fatalf("ctl %d did not stick", ctl)
		}
		// The partner slice must be untouched.
		v, err = j.GetSliceCtl(1, 2, 0, ctl)
		if err != nil || v {
			t.Fatalf("ctl %d leaked into slice 0", ctl)
		}
	}
}

func TestPIPRoundTripAndActive(t *testing.T) {
	j := newJB("XCV50")
	pips := j.Part.TilePIPs(4, 4)
	on := []int{0, 7, len(pips) - 1}
	for _, i := range on {
		j.SetPIP(pips[i], true)
	}
	active, err := j.ActivePIPs(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(active) != len(on) {
		t.Fatalf("active pips = %d, want %d", len(active), len(on))
	}
	for _, pip := range active {
		if !j.GetPIP(pip) {
			t.Fatal("active pip reads off")
		}
		j.SetPIP(pip, false)
	}
	if active, _ = j.ActivePIPs(4, 4); len(active) != 0 {
		t.Fatal("pips not cleared")
	}
}

func TestClearCLBAndRegion(t *testing.T) {
	j := newJB("XCV50")
	if err := j.SetLUT(2, 2, 0, device.LUTG, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	if err := j.SetSliceCtl(2, 2, 0, device.SliceCtlFFX, true); err != nil {
		t.Fatal(err)
	}
	pips := j.Part.TilePIPs(2, 2)
	j.SetPIP(pips[0], true)
	// A neighbour to ensure region clear covers everything and only the region.
	if err := j.SetLUT(5, 5, 0, device.LUTF, 0x1); err != nil {
		t.Fatal(err)
	}

	if err := j.ClearRegion(frames.Region{R1: 1, C1: 1, R2: 3, C2: 3}); err != nil {
		t.Fatal(err)
	}
	if v, _ := j.GetLUT(2, 2, 0, device.LUTG); v != 0 {
		t.Fatal("LUT survived region clear")
	}
	if v, _ := j.GetSliceCtl(2, 2, 0, device.SliceCtlFFX); v {
		t.Fatal("ctl survived region clear")
	}
	if j.GetPIP(pips[0]) {
		t.Fatal("pip survived region clear")
	}
	if v, _ := j.GetLUT(5, 5, 0, device.LUTF); v != 1 {
		t.Fatal("region clear leaked outside the region")
	}
}

// clearRegionBitwise is the reference ClearRegion: one SetBit per bit of
// every CLB in the region.
func clearRegionBitwise(j *JBits, rg frames.Region) {
	for r := rg.R1; r <= rg.R2; r++ {
		for c := rg.C1; c <= rg.C2; c++ {
			for b := 0; b < device.CLBLocalBits; b++ {
				j.Mem.SetBit(j.Part.CLBBit(r, c, b), false)
			}
		}
	}
}

// TestClearRegionMatchesBitwise pins the word-level ClearRegion to the
// per-bit reference on every part: the same memory and the same dirty set,
// from a random fill in which a quarter of the frames are blank (so some
// region frames stay clean). Clearing a clear region dirties nothing.
func TestClearRegionMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, p := range device.All() {
		base := frames.New(p)
		words := make([]uint32, p.FrameWords())
		for f, ok := p.FirstFAR(), true; ok; f, ok = p.NextFAR(f) {
			blank := rng.Intn(4) == 0
			for i := range words {
				words[i] = 0
				if !blank {
					words[i] = rng.Uint32()
				}
			}
			if err := base.SetFrame(f, words); err != nil {
				t.Fatal(err)
			}
		}
		regions := []struct {
			name string
			rg   frames.Region
		}{
			{"full device", frames.FullRegion(p)},
			{"column band", frames.Region{R1: 0, C1: 3, R2: p.Rows - 1, C2: 8}},
			{"interior block", frames.Region{R1: 2, C1: 5, R2: p.Rows - 4, C2: p.Cols / 2}},
			{"single tile", frames.Region{R1: p.Rows / 2, C1: p.Cols / 3, R2: p.Rows / 2, C2: p.Cols / 3}},
			{"bottom-right tile", frames.Region{R1: p.Rows - 1, C1: p.Cols - 1, R2: p.Rows - 1, C2: p.Cols - 1}},
		}
		for _, tc := range regions {
			got, want := base.Clone(), base.Clone()
			got.StartTracking()
			want.StartTracking()
			if err := New(got).ClearRegion(tc.rg); err != nil {
				t.Fatalf("%s %s: %v", p.Name, tc.name, err)
			}
			clearRegionBitwise(New(want), tc.rg)
			if !got.Equal(want) {
				t.Fatalf("%s %s: memory differs from the per-bit clear", p.Name, tc.name)
			}
			if g, w := got.DirtyFARs(), want.DirtyFARs(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s %s: dirty set %d frames, per-bit clear %d", p.Name, tc.name, len(g), len(w))
			}
			got.ResetDirty()
			if err := New(got).ClearRegion(tc.rg); err != nil {
				t.Fatal(err)
			}
			if n := got.DirtyCount(); n != 0 {
				t.Fatalf("%s %s: clearing a clear region dirtied %d frames", p.Name, tc.name, n)
			}
		}
	}
}

func TestPadModeRoundTrip(t *testing.T) {
	j := newJB("XCV50")
	pads := []device.Pad{
		{Edge: device.EdgeL, Index: 0},
		{Edge: device.EdgeR, Index: j.Part.Rows - 1},
		{Edge: device.EdgeT, Index: 5},
		{Edge: device.EdgeB, Index: j.Part.Cols - 1},
	}
	for _, pd := range pads {
		if err := j.SetPadMode(pd, device.PadCtlInUse, true); err != nil {
			t.Fatal(err)
		}
		v, err := j.GetPadMode(pd, device.PadCtlInUse)
		if err != nil || !v {
			t.Fatalf("pad %s mode did not stick", pd.Name())
		}
		if v, _ := j.GetPadMode(pd, device.PadCtlOutEn); v {
			t.Fatalf("pad %s: unrelated ctl bit set", pd.Name())
		}
	}
}

func TestBRAMWordRoundTrip(t *testing.T) {
	j := newJB("XCV50")
	f := func(side, block, addr uint8, v uint16) bool {
		s := int(side) % 2
		b := int(block) % j.Part.BRAMBlocksPerColumn()
		a := int(addr)
		if err := j.SetBRAMWord(s, b, a, v); err != nil {
			return false
		}
		got, err := j.GetBRAMWord(s, b, a)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBRAMContentIsolation(t *testing.T) {
	j := newJB("XCV50")
	var rom [device.BRAMWordsPerBlock]uint16
	for i := range rom {
		rom[i] = uint16(i*37 + 5)
	}
	if err := j.SetBRAMContent(0, 1, &rom); err != nil {
		t.Fatal(err)
	}
	got, err := j.GetBRAMContent(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if *got != rom {
		t.Fatal("BRAM content round trip failed")
	}
	// Neighbour blocks and the other column stay clear.
	for _, probe := range [][2]int{{0, 0}, {0, 2}, {1, 1}} {
		c, err := j.GetBRAMContent(probe[0], probe[1])
		if err != nil {
			t.Fatal(err)
		}
		for addr, v := range c {
			if v != 0 {
				t.Fatalf("block (%d,%d) addr %d contaminated: %04x", probe[0], probe[1], addr, v)
			}
		}
	}
	// CLB frames must be untouched by BRAM writes.
	if got := len(j.Mem.NonZeroFrames()); got != device.FramesBRAMCol && got > device.FramesBRAMCol {
		for _, far := range j.Mem.NonZeroFrames() {
			if far.BlockType() != device.BlockBRAM {
				t.Fatalf("BRAM write leaked into %v", far)
			}
		}
	}
}

func TestBRAMBoundsChecking(t *testing.T) {
	j := newJB("XCV50")
	if err := j.SetBRAMWord(2, 0, 0, 1); err == nil {
		t.Fatal("bad side accepted")
	}
	if err := j.SetBRAMWord(0, 99, 0, 1); err == nil {
		t.Fatal("bad block accepted")
	}
	if err := j.SetBRAMWord(0, 0, 256, 1); err == nil {
		t.Fatal("bad addr accepted")
	}
	if _, err := j.GetBRAMWord(0, 0, -1); err == nil {
		t.Fatal("negative addr accepted")
	}
}
