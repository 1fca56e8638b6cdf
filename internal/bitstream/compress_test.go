package bitstream

import (
	"testing"

	"repro/internal/device"
	"repro/internal/frames"
)

func TestCompressedPartialRoundTrip(t *testing.T) {
	src := randomMemory(t, "XCV50", 21)
	p := src.Part
	rg := frames.Region{R1: 0, C1: 2, R2: p.Rows - 1, C2: 9}
	runs := RunsForFARs(p, rg.FARs(p))

	compressed, err := WritePartialCompressed(src, runs)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := WritePartial(src, runs)
	if err != nil {
		t.Fatal(err)
	}

	// Apply both to independent copies of the same base and compare.
	base := randomMemory(t, "XCV50", 22)
	viaPlain, viaComp := base.Clone(), base.Clone()
	sp, err := Apply(viaPlain, plain)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Apply(viaComp, compressed)
	if err != nil {
		t.Fatal(err)
	}
	if !viaPlain.Equal(viaComp) {
		t.Fatal("compressed partial produced different state than plain partial")
	}
	if sp.FramesWritten != sc.FramesWritten {
		t.Fatalf("frames written: plain %d, compressed %d", sp.FramesWritten, sc.FramesWritten)
	}
}

func TestCompressedSmallerOnSparseContent(t *testing.T) {
	// A sparsely used region has many identical (mostly zero) frames: the
	// compressed form must be much smaller.
	p := device.MustByName("XCV50")
	mem := frames.New(p)
	// Configure only a handful of CLBs in an 8-column region.
	for i := 0; i < 6; i++ {
		mem.SetBit(p.CLBBit(i, 2+i%3, 10*i+3), true)
	}
	rg := frames.Region{R1: 0, C1: 2, R2: p.Rows - 1, C2: 9}
	runs := RunsForFARs(p, rg.FARs(p))
	plain, err := WritePartial(mem, runs)
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := WritePartialCompressed(mem, runs)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(compressed)) / float64(len(plain)); ratio > 0.35 {
		t.Fatalf("compression ratio %.2f too weak for sparse content (%d vs %d bytes)",
			ratio, len(compressed), len(plain))
	}
	// And still correct.
	a, b := frames.New(p), frames.New(p)
	if _, err := Apply(a, plain); err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(b, compressed); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("compressed/plain disagree")
	}
}

func TestCompressedNoWorseThanModestOverheadOnDenseContent(t *testing.T) {
	// Fully random frames (no duplicates): compression must degrade
	// gracefully to roughly the plain encoding.
	src := randomMemory(t, "XCV50", 23)
	p := src.Part
	// Make every frame of the region distinct.
	rg := frames.Region{R1: 0, C1: 0, R2: p.Rows - 1, C2: 3}
	for i, far := range rg.FARs(p) {
		f := src.Frame(far)
		f[0] = uint32(0xABC00000 + i)
	}
	runs := RunsForFARs(p, rg.FARs(p))
	plain, err := WritePartial(src, runs)
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := WritePartialCompressed(src, runs)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(compressed)) > 1.1*float64(len(plain)) {
		t.Fatalf("compression overhead too high on dense content: %d vs %d", len(compressed), len(plain))
	}
}

func TestMFWRRequiresPriorFrame(t *testing.T) {
	p := device.MustByName("XCV50")
	mem := frames.New(p)
	var b builder
	b.header()
	b.cmd(CmdRCRC)
	b.t1(RegFLR, uint32(p.FrameWords()-1))
	b.cmd(CmdWCFG)
	b.t1(RegMFWR, uint32(p.FirstFAR()))
	b.writeCRC()
	if _, err := Apply(mem, wordsToBytes(b.words)); err == nil {
		t.Fatal("MFWR before FDRI accepted")
	}
}

func TestMFWRValidation(t *testing.T) {
	src := randomMemory(t, "XCV50", 24)
	p := src.Part
	var b builder
	b.header()
	b.cmd(CmdRCRC)
	b.t1(RegFLR, uint32(p.FrameWords()-1))
	b.t1(RegFAR, uint32(p.FirstFAR()))
	b.cmd(CmdWCFG)
	if err := b.fdri(src, FrameRun{Start: p.FirstFAR(), N: 1}); err != nil {
		t.Fatal(err)
	}
	b.t1(RegMFWR, uint32(device.MakeFAR(7, 0, 0))) // invalid FAR
	b.writeCRC()
	mem := frames.New(p)
	if _, err := Apply(mem, wordsToBytes(b.words)); err == nil {
		t.Fatal("MFWR to invalid FAR accepted")
	}
}

// BenchmarkWritePartialCompressed writes a six-column XCV50 partial (288
// frames) of the kind serve-mixed compresses: random logic in the region's
// columns, many all-zero and repeated frames among them.
func BenchmarkWritePartialCompressed(b *testing.B) {
	src := seedMemory("XCV50", 21)
	p := src.Part
	rg := frames.Region{R1: 0, C1: 4, R2: p.Rows - 1, C2: 9}
	runs := RunsForFARs(p, rg.FARs(p))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := WritePartialCompressed(src, runs); err != nil {
			b.Fatal(err)
		}
	}
}
