package bitstream

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/frames"
)

func randomMemory(t *testing.T, partName string, seed int64) *frames.Memory {
	t.Helper()
	p := device.MustByName(partName)
	m := frames.New(p)
	rng := rand.New(rand.NewSource(seed))
	// Sprinkle bits across random CLBs.
	for i := 0; i < 2000; i++ {
		bc := p.CLBBit(rng.Intn(p.Rows), rng.Intn(p.Cols), rng.Intn(device.CLBLocalBits))
		m.SetBit(bc, true)
	}
	return m
}

func TestFullRoundTrip(t *testing.T) {
	src := randomMemory(t, "XCV50", 1)
	bs := WriteFull(src)
	dst := frames.New(src.Part)
	stats, err := Apply(dst, bs)
	if err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(src) {
		t.Fatal("full bitstream round trip lost state")
	}
	if stats.FramesWritten != src.Part.TotalFrames() {
		t.Fatalf("frames written = %d, want %d", stats.FramesWritten, src.Part.TotalFrames())
	}
	if !stats.Started {
		t.Fatal("full bitstream should issue START")
	}
	if stats.CRCChecks != 1 {
		t.Fatalf("CRC checks = %d, want 1", stats.CRCChecks)
	}
}

func TestFullBitstreamSizeMatchesDatasheetScale(t *testing.T) {
	// A full bitstream is dominated by the frame payload; overhead is a few
	// dozen words. Check total size is payload + pad frame + small overhead.
	for _, name := range []string{"XCV50", "XCV300"} {
		p := device.MustByName(name)
		m := frames.New(p)
		bs := WriteFull(m)
		payload := (p.TotalFrames() + 1) * p.FrameWords() * 4
		overhead := len(bs) - payload
		if overhead < 0 || overhead > 200 {
			t.Errorf("%s: bitstream %d bytes, payload %d, overhead %d", name, len(bs), payload, overhead)
		}
	}
}

func TestPartialRoundTrip(t *testing.T) {
	src := randomMemory(t, "XCV50", 2)
	p := src.Part

	// Start from a different base state; apply a partial for columns 4..6.
	base := randomMemory(t, "XCV50", 3)
	rg := frames.Region{R1: 0, C1: 4, R2: p.Rows - 1, C2: 6}
	fars := rg.FARs(p)
	partial, err := WritePartialForFARs(src, fars)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Clone()
	for _, f := range fars {
		if err := want.SetFrame(f, src.Frame(f)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := Apply(base, partial)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FramesWritten != len(fars) {
		t.Fatalf("partial wrote %d frames, want %d", stats.FramesWritten, len(fars))
	}
	if stats.Started {
		t.Fatal("partial bitstream must not issue START")
	}
	if !base.Equal(want) {
		t.Fatal("partial application changed frames outside the region or missed frames inside")
	}
}

func TestPartialSmallerThanFull(t *testing.T) {
	src := randomMemory(t, "XCV300", 4)
	p := src.Part
	full := WriteFull(src)
	rg := frames.Region{R1: 0, C1: 0, R2: p.Rows - 1, C2: p.Cols/3 - 1}
	partial, err := WritePartialForFARs(src, rg.FARs(p))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(partial)) / float64(len(full))
	if ratio > 0.40 || ratio < 0.25 {
		t.Fatalf("1/3-region partial is %.2f of full (want ~1/3)", ratio)
	}
}

func TestRunsForFARs(t *testing.T) {
	p := device.MustByName("XCV50")
	f := func(idx []uint16) bool {
		if len(idx) == 0 {
			return true
		}
		fars := make([]device.FAR, len(idx))
		covered := map[int]bool{}
		for i, v := range idx {
			fi := int(v) % p.TotalFrames()
			far, err := p.FARAt(fi)
			if err != nil {
				return false
			}
			fars[i] = far
			covered[fi] = true
		}
		runs := RunsForFARs(p, fars)
		// Runs must cover exactly the input set, contiguously, sorted.
		total := 0
		prevEnd := -1
		for _, r := range runs {
			start := p.FrameIndex(r.Start)
			if start <= prevEnd {
				return false // overlapping or unsorted
			}
			if start == prevEnd+1 && prevEnd >= 0 {
				return false // should have been merged
			}
			for k := 0; k < r.N; k++ {
				if !covered[start+k] {
					return false
				}
			}
			total += r.N
			prevEnd = start + r.N - 1
		}
		return total == len(covered)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	// Unsorted, with repeats, across both block types: the last two
	// frames of block type 0 run on into the first of block type 1.
	maj := p.NumMajors(device.BlockCLB) - 1
	lastCLB := device.MakeFAR(device.BlockCLB, maj, p.FramesInMajor(device.BlockCLB, maj)-1)
	prevCLB := device.MakeFAR(device.BlockCLB, maj, p.FramesInMajor(device.BlockCLB, maj)-2)
	bram0 := device.MakeFAR(device.BlockBRAM, 0, 0)
	bram1 := device.MakeFAR(device.BlockBRAM, 1, 5)
	clk := device.MakeFAR(device.BlockCLB, 0, 3)
	got := RunsForFARs(p, []device.FAR{bram1, bram0, lastCLB, clk, bram0, prevCLB, lastCLB, clk})
	want := []FrameRun{{Start: clk, N: 1}, {Start: prevCLB, N: 3}, {Start: bram1, N: 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("RunsForFARs = %v, want %v", got, want)
	}
	if got := RunsForFARs(p, nil); got != nil {
		t.Fatalf("RunsForFARs(nil) = %v", got)
	}
}

// TestApplyRejectsOverrunBeforeWriting: an FDRI run that passes the last
// frame is refused before any of its frames reaches the memory.
func TestApplyRejectsOverrunBeforeWriting(t *testing.T) {
	src := randomMemory(t, "XCV50", 6)
	p := src.Part
	last, err := p.FARAt(p.TotalFrames() - 2)
	if err != nil {
		t.Fatal(err)
	}
	fw := p.FrameWords()
	var b builder
	b.header()
	b.cmd(CmdRCRC)
	b.t1(RegFLR, uint32(fw-1))
	b.t1(RegFAR, uint32(last))
	b.cmd(CmdWCFG)
	// Three frames from the second-to-last frame, plus the pad frame.
	data := make([]uint32, 4*fw)
	for i := range data {
		data[i] = 0xA5A5A5A5
	}
	b.t1(RegFDRI, data...)
	b.cmd(CmdLFRM)
	b.writeCRC()
	b.cmd(CmdDESYNCH)
	mem := src.Clone()
	if _, err := Apply(mem, wordsToBytes(b.words)); err == nil {
		t.Fatal("Apply accepted an FDRI run past the last frame")
	}
	if !mem.Equal(src) {
		t.Fatal("a rejected FDRI run wrote frames")
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	src := randomMemory(t, "XCV50", 5)
	bs := WriteFull(src)
	// Flip a bit in the middle of the frame payload.
	bs[len(bs)/2] ^= 0x10
	dst := frames.New(src.Part)
	if _, err := Apply(dst, bs); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupted bitstream applied without CRC error: %v", err)
	}
}

func TestApplyRejectsWrongPart(t *testing.T) {
	src := frames.New(device.MustByName("XCV50"))
	bs := WriteFull(src)
	dst := frames.New(device.MustByName("XCV100"))
	if _, err := Apply(dst, bs); err == nil {
		t.Fatal("bitstream for XCV50 applied to XCV100")
	}
}

func TestApplyRejectsGarbage(t *testing.T) {
	dst := frames.New(device.MustByName("XCV50"))
	if _, err := Apply(dst, []byte{1, 2, 3}); err == nil {
		t.Fatal("non-word-aligned bitstream accepted")
	}
	if _, err := Apply(dst, []byte{0, 0, 0, 1, 0, 0, 0, 2}); err == nil {
		t.Fatal("stream without sync accepted")
	}
	// Truncated: valid prefix of a real stream.
	src := frames.New(device.MustByName("XCV50"))
	bs := WriteFull(src)
	if _, err := Apply(dst, bs[:len(bs)/2-2]); err == nil {
		t.Fatal("truncated bitstream accepted")
	}
}

func TestPartialRejectsEmpty(t *testing.T) {
	m := frames.New(device.MustByName("XCV50"))
	if _, err := WritePartial(m, nil); err == nil {
		t.Fatal("empty partial accepted")
	}
	if _, err := WritePartial(m, []FrameRun{{Start: m.Part.FirstFAR(), N: 0}}); err == nil {
		t.Fatal("zero-length run accepted")
	}
}

func TestPartialRunOverrun(t *testing.T) {
	m := frames.New(device.MustByName("XCV50"))
	last, err := m.Part.FARAt(m.Part.TotalFrames() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WritePartial(m, []FrameRun{{Start: last, N: 2}}); err == nil {
		t.Fatal("overrunning run accepted")
	}
}

func TestInspectAndDump(t *testing.T) {
	src := randomMemory(t, "XCV50", 6)
	bs := WriteFull(src)
	pis, err := Inspect(bs)
	if err != nil {
		t.Fatal(err)
	}
	var sawFDRI, sawStart bool
	for _, pi := range pis {
		if pi.Reg == RegFDRI && pi.Op == OpWrite && pi.Count > 0 {
			sawFDRI = true
		}
		if pi.Reg == RegCMD && pi.First == CmdSTART {
			sawStart = true
		}
	}
	if !sawFDRI || !sawStart {
		t.Fatalf("inspect missed packets (FDRI=%v START=%v)", sawFDRI, sawStart)
	}
	out, err := Dump(bs)
	if err != nil || !strings.Contains(out, "WCFG") {
		t.Fatalf("dump output unexpected: %v", err)
	}
}

// TestApplyNeverPanicsOnMutations: randomly corrupted bitstreams must fail
// cleanly (or no-op), never panic — the configuration port's untrusted
// input path.
func TestApplyNeverPanicsOnMutations(t *testing.T) {
	src := randomMemory(t, "XCV50", 31)
	valid := WriteFull(src)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		bs := append([]byte(nil), valid...)
		for i := 0; i < 1+rng.Intn(6); i++ {
			switch rng.Intn(3) {
			case 0:
				bs[rng.Intn(len(bs))] ^= byte(1 + rng.Intn(255))
			case 1:
				bs = bs[:rng.Intn(len(bs))&^3] // word-aligned truncate
				if len(bs) == 0 {
					bs = []byte{0, 0, 0, 0}
				}
			case 2:
				bs = append(bs, byte(rng.Intn(256)), 0, 0, 0)
			}
		}
		dst := frames.New(src.Part)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: Apply panicked: %v", trial, r)
				}
			}()
			_, _ = Apply(dst, bs)
		}()
	}
}

// TestInspectNeverPanicsOnMutations mirrors the same property for the
// non-applying decoder.
func TestInspectNeverPanicsOnMutations(t *testing.T) {
	src := randomMemory(t, "XCV50", 32)
	valid := WriteFull(src)
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 200; trial++ {
		bs := append([]byte(nil), valid...)
		for i := 0; i < 4; i++ {
			bs[rng.Intn(len(bs))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: Inspect panicked: %v", trial, r)
				}
			}()
			_, _ = Inspect(bs)
		}()
	}
}
