package jpg

// Tests of the public facade: the API surface examples and downstream users
// see. Deep behaviour is tested in the internal packages; these tests pin
// the composition.

import (
	"context"
	"strings"
	"testing"
)

func TestPartsCatalog(t *testing.T) {
	parts := Parts()
	if len(parts) != 9 {
		t.Fatalf("family has %d parts, want 9", len(parts))
	}
	p, err := PartByName("XCV300")
	if err != nil || p.Rows != 32 {
		t.Fatalf("PartByName: %v", err)
	}
	if _, err := PartByName("XC4000"); err == nil {
		t.Fatal("unknown part accepted")
	}
}

func TestPublicEndToEnd(t *testing.T) {
	p, err := PartByName("XCV50")
	if err != nil {
		t.Fatal(err)
	}
	base, err := BuildBase(context.Background(), p, []Instance{
		{Prefix: "u1/", Gen: Counter{Bits: 5}},
		{Prefix: "u2/", Gen: SBoxBank{N: 4, Seed: 2}},
	}, FlowOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	variant, err := BuildVariant(context.Background(), base, "u1/", LFSR{Bits: 5}, FlowOptions{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	m, err := proj.AddModule("v", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	board := NewBoard(p)
	if _, err := board.Download(base.Bitstream); err != nil {
		t.Fatal(err)
	}
	res, ds, err := proj.GenerateAndDownload(context.Background(), m, board, GenerateOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Bytes != len(res.Bitstream) || len(res.Bitstream) >= len(base.Bitstream) {
		t.Fatalf("partial result inconsistent: %d bytes vs full %d", len(res.Bitstream), len(base.Bitstream))
	}

	// Bitstream utilities.
	if part, err := InferPart(base.Bitstream); err != nil || part != p {
		t.Fatalf("InferPart: %v", err)
	}
	dump, err := DumpBitstream(res.Bitstream)
	if err != nil || !strings.Contains(dump, "WCFG") {
		t.Fatalf("DumpBitstream: %v", err)
	}
	mem := NewMemory(p)
	if _, err := Apply(mem, base.Bitstream); err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(mem, res.Bitstream); err != nil {
		t.Fatal(err)
	}
	if !mem.Equal(board.Readback()) {
		t.Fatal("offline Apply disagrees with board state")
	}

	// Extraction and simulation.
	ex, err := ExtractDesign(mem)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimulateExtracted(ex)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step()
	if _, err := sim.Output(base.Pads["u1_out0"]); err != nil {
		t.Fatal(err)
	}
}

func TestPublicBaselines(t *testing.T) {
	p, err := PartByName("XCV50")
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildFull(context.Background(), p, []Instance{{Prefix: "u1/", Gen: Counter{Bits: 4}}}, FlowOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	partial, err := ParbitTransform(full.Bitstream, ParbitOptions{Part: "XCV50", StartCol: 1, EndCol: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) >= len(full.Bitstream) {
		t.Fatal("parbit window not smaller than full")
	}
	full2, err := BuildFull(context.Background(), p, []Instance{{Prefix: "u1/", Gen: Counter{Bits: 4}}}, FlowOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	core, err := JBitsDiffExtract(full.Bitstream, full2.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	if len(core.FARs) == 0 {
		t.Fatal("jbitsdiff found no differences between different placements")
	}
}

func TestPartialForFARs(t *testing.T) {
	p, err := PartByName("XCV50")
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory(p)
	rg := Region{R1: 0, C1: 0, R2: p.Rows - 1, C2: 2}
	bs, err := WritePartialForFARs(mem, rg.FARs(p))
	if err != nil {
		t.Fatal(err)
	}
	full := WriteFull(mem)
	if len(bs) >= len(full) {
		t.Fatal("partial not smaller than full")
	}
}

func TestPublicTimingAndGuides(t *testing.T) {
	p, err := PartByName("XCV50")
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildFull(context.Background(), p, []Instance{{Prefix: "u1/", Gen: Counter{Bits: 5}}}, FlowOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ta, err := AnalyzeTiming(full)
	if err != nil {
		t.Fatal(err)
	}
	if ta.FMaxMHz <= 0 || ta.CriticalNs <= 0 {
		t.Fatalf("timing analysis empty: %+v", ta)
	}
	if !strings.Contains(ta.Report(), "fmax") {
		t.Fatal("timing report incomplete")
	}
}

func TestPublicRuntimeRouterAndBRAM(t *testing.T) {
	p, err := PartByName("XCV50")
	if err != nil {
		t.Fatal(err)
	}
	base, err := BuildBase(context.Background(), p, []Instance{{Prefix: "u1/", Gen: Counter{Bits: 4}}}, FlowOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}

	// BRAM update through the public API.
	res, err := proj.UpdateBRAM(GenerateOptions{WriteBack: true}, func(jb *JBits) error {
		return jb.SetBRAMWord(0, 1, 42, 0xCAFE)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bitstream) == 0 {
		t.Fatal("empty BRAM partial")
	}
	jb := NewJBits(proj.Base)
	if v, err := jb.GetBRAMWord(0, 1, 42); err != nil || v != 0xCAFE {
		t.Fatalf("BRAM write-back lost: %04x %v", v, err)
	}

	// Run-time router through the public API.
	router, err := NewRuntimeRouter(proj.Base)
	if err != nil {
		t.Fatal(err)
	}
	src, err := CellOutputNode(&base.Artifacts, "u1/q0")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := PadOutputNode(p, "P_R5")
	if err != nil {
		t.Fatal(err)
	}
	path, err := router.Connect(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) == 0 {
		t.Fatal("empty run-time route")
	}
	if err := EnableOutputPad(proj.Base, "P_R5"); err != nil {
		t.Fatal(err)
	}
	if _, err := CellOutputNode(&base.Artifacts, "ghost"); err == nil {
		t.Fatal("unknown cell accepted")
	}
	if _, err := PadOutputNode(p, "P_Z1"); err == nil {
		t.Fatal("bad pad accepted")
	}
}

func TestPublicBitfile(t *testing.T) {
	raw := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xAA, 0x99, 0x55, 0x66}
	wrapped := WrapBitfile(BitfileHeader{Design: "d.ncd", Part: "XCV50"}, raw)
	out, h, err := UnwrapBitfile(wrapped)
	if err != nil || h.Part != "XCV50" || len(out) != len(raw) {
		t.Fatalf("bitfile round trip: %+v %v", h, err)
	}
	out, h, err = UnwrapBitfile(raw)
	if err != nil || h.Part != "" || len(out) != len(raw) {
		t.Fatal("raw passthrough broken")
	}
}
