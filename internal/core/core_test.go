package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitlint"
	"repro/internal/bitstream"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/flow"
	"repro/internal/frames"
	"repro/internal/jbits"
	"repro/internal/netlist"
	"repro/internal/parallel"
	"repro/internal/phys"
	"repro/internal/xdl"
	"repro/internal/xhwif"
)

// setup builds a two-module base design and one variant for u1, the paper's
// Phase 1 + Phase 2.
func setup(t *testing.T) (*flow.BaseBuild, *flow.Artifacts) {
	t.Helper()
	p := device.MustByName("XCV50")
	base, err := flow.BuildBase(context.Background(), p, []designs.Instance{
		{Prefix: "u1/", Gen: designs.Counter{Bits: 6}},
		{Prefix: "u2/", Gen: designs.SBoxBank{N: 8, Seed: 3}},
	}, flow.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	variant, err := flow.BuildVariant(context.Background(), base, "u1/", designs.LFSR{Bits: 6}, flow.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return base, variant
}

func TestNewProjectInfersPartAndState(t *testing.T) {
	base, _ := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Part.Name != "XCV50" {
		t.Fatalf("inferred part %s", proj.Part.Name)
	}
	// The recovered memory must match a direct bitgen of the base design.
	mem := frames.New(proj.Part)
	if _, err := bitstream.Apply(mem, base.Bitstream); err != nil {
		t.Fatal(err)
	}
	if !proj.Base.Equal(mem) {
		t.Fatal("project base state differs from bitstream contents")
	}
}

func TestNewProjectRejectsPartial(t *testing.T) {
	base, variant := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	m, err := proj.AddModule("u1_lfsr", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	res, err := proj.GeneratePartial(m, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProject(res.Bitstream); err == nil {
		t.Fatal("partial bitstream accepted as a base")
	}
	if _, err := NewProject([]byte{1, 2, 3, 4}); err == nil {
		t.Fatal("garbage accepted as a base")
	}
}

func TestGeneratePartialEndToEnd(t *testing.T) {
	base, variant := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	m, err := proj.AddModule("u1_lfsr", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	res, err := proj.GeneratePartial(m, GenerateOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}

	// Size: the partial covers only the module's columns.
	if len(res.Bitstream) >= len(base.Bitstream) {
		t.Fatalf("partial (%d B) not smaller than full (%d B)", len(res.Bitstream), len(base.Bitstream))
	}
	wantCols := base.Regions["u1/"]
	if res.Region.C1 != wantCols.C1 || res.Region.C2 != wantCols.C2 {
		t.Fatalf("partial region %v, want columns of %v", res.Region, wantCols)
	}
	ratio := float64(len(res.Bitstream)) / float64(len(base.Bitstream))
	frac := float64(res.Region.Cols()) / float64(proj.Part.Cols)
	if ratio > frac*1.35 {
		t.Fatalf("partial ratio %.3f too large for column fraction %.3f", ratio, frac)
	}
	if res.FramesChanged == 0 {
		t.Fatal("partial changed no frames (variant identical to base?)")
	}

	// Dynamic reconfiguration on a board running the base design.
	board := xhwif.NewBoard(proj.Part)
	if _, err := board.Download(base.Bitstream); err != nil {
		t.Fatal(err)
	}
	if !board.Running() {
		t.Fatal("board not running after full download")
	}
	ds, err := board.Download(res.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Started {
		t.Fatal("partial download restarted the device")
	}
	if ds.FramesWritten != len(res.FARs) {
		t.Fatalf("board wrote %d frames, partial carries %d", ds.FramesWritten, len(res.FARs))
	}

	// The board state must now equal base-with-module-replayed; outside the
	// region nothing changed.
	after := board.Readback()
	proj2, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := proj2.AddModule("u1_lfsr", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proj2.GeneratePartial(m2, GenerateOptions{WriteBack: true}); err != nil {
		t.Fatal(err)
	}
	if !after.Equal(proj2.Base) {
		t.Fatal("board state after partial reconfig differs from write-back state")
	}
	diff, err := after.Diff(proj.Base) // proj.Base is untouched (no write-back)
	if err != nil {
		t.Fatal(err)
	}
	for _, far := range diff {
		col, ok := proj.Part.CLBColOfMajor(far.Major())
		if !ok || col < res.Region.C1 || col > res.Region.C2 {
			t.Fatalf("frame %v changed outside the module's columns", far)
		}
	}
}

func TestWriteBackSemantics(t *testing.T) {
	base, variant := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	m, err := proj.AddModule("v", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	before := proj.Base.Clone()
	if _, err := proj.GeneratePartial(m, GenerateOptions{}); err != nil {
		t.Fatal(err)
	}
	if !proj.Base.Equal(before) {
		t.Fatal("option 1 (no write-back) modified the base")
	}
	if _, err := proj.GeneratePartial(m, GenerateOptions{WriteBack: true}); err != nil {
		t.Fatal(err)
	}
	if proj.Base.Equal(before) {
		t.Fatal("option 2 (write-back) left the base unchanged")
	}
}

func TestGenerateAndDownload(t *testing.T) {
	base, variant := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	m, err := proj.AddModule("v", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	board := xhwif.NewBoard(proj.Part)
	if _, err := board.Download(base.Bitstream); err != nil {
		t.Fatal(err)
	}
	res, ds, err := proj.GenerateAndDownload(context.Background(), m, board, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Bytes != len(res.Bitstream) || ds.ModelTime <= 0 {
		t.Fatalf("download stats wrong: %+v", ds)
	}
	if !board.Readback().Equal(proj.Base) {
		t.Fatal("board and project state diverged after download")
	}
}

func TestModuleAnalysis(t *testing.T) {
	base, variant := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	m, err := proj.AddModule("v", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	if !m.DeclaredOK {
		t.Fatal("declared region missing despite AREA_GROUP in UCF")
	}
	if !m.Declared.ContainsRegion(m.Touched) {
		t.Fatalf("module escapes its declared region: %v vs %v", m.Declared, m.Touched)
	}
	fp := m.FloorplanASCII(proj.Part)
	if !strings.Contains(fp, "#") || !strings.Contains(fp, "|") {
		t.Fatalf("floorplan rendering missing markers:\n%s", fp)
	}
	if !strings.Contains(m.Stats(), "LUTs") {
		t.Fatal("stats string incomplete")
	}
}

func TestAddModuleRejectsWrongPart(t *testing.T) {
	base, variant := setup(t)
	_ = base
	// Build a project for a different part.
	p100 := device.MustByName("XCV100")
	mem := frames.New(p100)
	proj, err := NewProjectForPart(p100, mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proj.AddModule("v", variant.XDL, variant.UCF); err == nil {
		t.Fatal("module for XCV50 accepted into XCV100 project")
	}
}

func TestAddModuleRejectsGarbage(t *testing.T) {
	base, variant := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proj.AddModule("v", "not xdl", variant.UCF); err == nil {
		t.Fatal("garbage XDL accepted")
	}
	if _, err := proj.AddModule("v", variant.XDL, `NET "x" LOC = "P_L999";`); err == nil {
		t.Fatal("invalid UCF accepted")
	}
}

// TestAddModuleRejectsIllegalRoutes gives AddModule a variant's XDL with one
// PIP added: one from a node of the net's own tree into a wire another net
// drives, or routing the net's source never reaches. Each must
// be refused before it reaches configuration memory, naming the net.
func TestAddModuleRejectsIllegalRoutes(t *testing.T) {
	base, variant := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	// tree returns the nodes net n's route reaches.
	tree := func(t *testing.T, d *phys.Design, n *netlist.Net) []device.NodeID {
		src, err := d.SourceNode(n)
		if err != nil {
			t.Fatal(err)
		}
		nodes := []device.NodeID{src}
		for _, pip := range d.Routes[n].PIPs {
			nodes = append(nodes, pip.Dst)
		}
		return nodes
	}
	cases := []struct {
		name string
		// add puts one PIP on a net's route and returns the net.
		add func(t *testing.T, d *phys.Design) *netlist.Net
	}{
		{"wire driven by two nets", func(t *testing.T, d *phys.Design) *netlist.Net {
			owner := map[device.NodeID]*netlist.Net{}
			for n, r := range d.Routes {
				for _, pip := range r.PIPs {
					owner[pip.Dst] = n
				}
			}
			g := device.NewGraph(d.Part)
			for _, n := range d.Netlist.Nets {
				if n.IsClock || d.Routes[n] == nil {
					continue
				}
				for _, v := range tree(t, d, n) {
					for _, pip := range g.From(v) {
						if m := owner[pip.Dst]; m != nil && m != n && !m.IsClock {
							d.Routes[n].PIPs = append(d.Routes[n].PIPs, pip)
							return n
						}
					}
				}
			}
			t.Fatal("no net is one PIP away from a wire another net drives")
			return nil
		}},
		{"orphan PIP", func(t *testing.T, d *phys.Design) *netlist.Net {
			for _, n := range d.Netlist.Nets {
				if n.IsClock || d.Routes[n] == nil || len(d.Routes[n].PIPs) == 0 {
					continue
				}
				in := map[device.NodeID]bool{}
				for _, v := range tree(t, d, n) {
					in[v] = true
				}
				for _, m := range d.Netlist.Nets {
					if m == n || d.Routes[m] == nil {
						continue
					}
					for _, pip := range d.Routes[m].PIPs {
						if !in[pip.Src] && !in[pip.Dst] {
							d.Routes[n].PIPs = append(d.Routes[n].PIPs, pip)
							return n
						}
					}
				}
			}
			t.Fatal("no PIP lies outside a routed net's tree")
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := xdl.Load(variant.XDL)
			if err != nil {
				t.Fatal(err)
			}
			n := tc.add(t, d)
			text, err := xdl.Emit(d)
			if err != nil {
				t.Fatal(err)
			}
			_, err = proj.AddModule("v", text, variant.UCF)
			if err == nil {
				t.Fatal("AddModule accepted illegal routing")
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("%q", n.Name)) {
				t.Fatalf("error %q does not name net %q", err, n.Name)
			}
			t.Log(err)
		})
	}
	if _, err := proj.AddModule("v", variant.XDL, variant.UCF); err != nil {
		t.Fatalf("the unedited variant is refused: %v", err)
	}
}

func TestVerifyRegionAfterDownload(t *testing.T) {
	base, variant := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	m, err := proj.AddModule("v", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	board := xhwif.NewBoard(proj.Part)
	if _, err := board.Download(base.Bitstream); err != nil {
		t.Fatal(err)
	}
	res, _, err := proj.GenerateAndDownload(context.Background(), m, board, GenerateOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	// Verification against the live board must pass for the written region
	// and for the whole device.
	if err := proj.VerifyRegion(res.Region, board); err != nil {
		t.Fatal(err)
	}
	if err := proj.VerifyRegion(frames.FullRegion(proj.Part), board); err != nil {
		t.Fatal(err)
	}
	// Corrupt one frame on the device; verification must now fail.
	rb := board.Readback()
	bc := proj.Part.CLBBit(3, res.Region.C1, 100)
	rb.SetBit(bc, !rb.Bit(bc))
	proj2, err := NewProjectForPart(proj.Part, rb)
	if err != nil {
		t.Fatal(err)
	}
	err = proj2.VerifyRegion(res.Region, board)
	if err == nil {
		t.Fatal("verification missed a corrupted frame")
	}
	if want := fmt.Sprintf("verify failed at %v word %d:", bc.FAR, bc.Bit/32); !strings.Contains(err.Error(), want) {
		t.Fatalf("verification error %q does not name %q", err, want)
	}
	// Invalid region rejected.
	if err := proj.VerifyRegion(frames.Region{R1: 0, C1: 0, R2: 99, C2: 0}, board); err == nil {
		t.Fatal("invalid region accepted")
	}
}

func TestUpdateBRAM(t *testing.T) {
	base, _ := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	board := xhwif.NewBoard(proj.Part)
	if _, err := board.Download(base.Bitstream); err != nil {
		t.Fatal(err)
	}
	var rom [device.BRAMWordsPerBlock]uint16
	for i := range rom {
		rom[i] = uint16(3 * i)
	}
	res, err := proj.UpdateBRAM(GenerateOptions{WriteBack: true}, func(jb *jbits.JBits) error {
		return jb.SetBRAMContent(1, 2, &rom)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only the right BRAM column's frames are carried; the partial is tiny.
	if len(res.FARs) != device.FramesBRAMCol {
		t.Fatalf("BRAM partial carries %d frames, want %d", len(res.FARs), device.FramesBRAMCol)
	}
	for _, far := range res.FARs {
		if far.BlockType() != device.BlockBRAM || far.Major() != 1 {
			t.Fatalf("BRAM partial carries stray frame %v", far)
		}
	}
	if len(res.Bitstream) > len(base.Bitstream)/10 {
		t.Fatalf("BRAM partial unexpectedly large: %d bytes", len(res.Bitstream))
	}
	// Download and verify: the board's BRAM holds the ROM, logic untouched.
	before := board.Readback()
	if _, err := board.Download(res.Bitstream); err != nil {
		t.Fatal(err)
	}
	after := board.Readback()
	jb := jbits.New(after)
	got, err := jb.GetBRAMContent(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if *got != rom {
		t.Fatal("BRAM content did not reach the device")
	}
	diff, err := after.Diff(before)
	if err != nil {
		t.Fatal(err)
	}
	for _, far := range diff {
		if far.BlockType() != device.BlockBRAM {
			t.Fatalf("BRAM update changed logic frame %v", far)
		}
	}
	if !after.Equal(proj.Base) {
		t.Fatal("write-back and device state diverged")
	}
	// A no-op update is rejected.
	if _, err := proj.UpdateBRAM(GenerateOptions{}, func(jb *jbits.JBits) error { return nil }); err == nil {
		t.Fatal("no-op BRAM update accepted")
	}
	// Logic-touching updates are rejected.
	if _, err := proj.UpdateBRAM(GenerateOptions{}, func(jb *jbits.JBits) error {
		return jb.SetLUT(0, 0, 0, device.LUTF, 0xFFFF)
	}); err == nil {
		t.Fatal("logic-touching BRAM update accepted")
	}
}

func TestUpdateBRAMCompressed(t *testing.T) {
	base, _ := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	set := func(jb *jbits.JBits) error { return jb.SetBRAMWord(0, 0, 7, 0xBEEF) }
	plain, err := proj.UpdateBRAM(GenerateOptions{}, set)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := proj.UpdateBRAM(GenerateOptions{Compress: true}, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Bitstream) >= len(plain.Bitstream) {
		t.Fatalf("compressed BRAM partial (%d B) not smaller than plain (%d B)",
			len(comp.Bitstream), len(plain.Bitstream))
	}
	// Both must produce identical device state.
	a, b := proj.Base.Clone(), proj.Base.Clone()
	if _, err := bitstream.Apply(a, plain.Bitstream); err != nil {
		t.Fatal(err)
	}
	if _, err := bitstream.Apply(b, comp.Bitstream); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("compressed/plain BRAM partials disagree")
	}
}

// TestEndToEndOnXCV300 exercises the whole pipeline on a mid-size family
// member, guarding against small-device-only assumptions.
func TestEndToEndOnXCV300(t *testing.T) {
	if testing.Short() {
		t.Skip("larger device")
	}
	p := device.MustByName("XCV300")
	base, err := flow.BuildBase(context.Background(), p, []designs.Instance{
		{Prefix: "u1/", Gen: designs.Counter{Bits: 8}},
		{Prefix: "u2/", Gen: designs.StringMatcher{Pattern: "xcv"}},
		{Prefix: "u3/", Gen: designs.SBoxBank{N: 10, Seed: 4}},
	}, flow.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	variant, err := flow.BuildVariant(context.Background(), base, "u1/", designs.LFSR{Bits: 8, Taps: []int{7, 5, 4, 3}}, flow.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Part != p {
		t.Fatalf("inferred %s", proj.Part.Name)
	}
	m, err := proj.AddModule("v", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	board := xhwif.NewBoard(p)
	if _, err := board.Download(base.Bitstream); err != nil {
		t.Fatal(err)
	}
	res, _, err := proj.GenerateAndDownload(context.Background(), m, board, GenerateOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := proj.VerifyRegion(res.Region, board); err != nil {
		t.Fatal(err)
	}
	frac := float64(res.Region.Cols()) / float64(p.Cols)
	ratio := float64(len(res.Bitstream)) / float64(len(base.Bitstream))
	if ratio > frac*1.35 {
		t.Fatalf("XCV300 partial ratio %.3f vs column fraction %.3f", ratio, frac)
	}
}

// TestGeneratePartialAll checks the concurrent multi-module generator: the
// results match serial GeneratePartial calls byte for byte regardless of
// worker count, the base state is untouched, and WriteBack is rejected.
func TestGeneratePartialAll(t *testing.T) {
	base, _ := setup(t)
	variants := []designs.Generator{
		designs.LFSR{Bits: 6},
		designs.LFSR{Bits: 6, Taps: []int{5, 2}},
		designs.Counter{Bits: 6},
	}
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	mods := make([]*Module, len(variants))
	for i, gen := range variants {
		va, err := flow.BuildVariant(context.Background(), base, "u1/", gen, flow.Options{Seed: int64(20 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if mods[i], err = proj.AddModule(gen.Name(), va.XDL, va.UCF); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]*Result, len(mods))
	for i, m := range mods {
		if want[i], err = proj.GeneratePartial(m, GenerateOptions{Strict: true}); err != nil {
			t.Fatal(err)
		}
	}
	before := proj.Base.Clone()
	for _, workers := range []int{1, 4} {
		got, err := proj.GeneratePartialAll(context.Background(), mods, GenerateOptions{Strict: true}, parallel.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range mods {
			if !bytes.Equal(got[i].Bitstream, want[i].Bitstream) {
				t.Fatalf("workers=%d: module %d bitstream differs from serial", workers, i)
			}
			if got[i].Region != want[i].Region || got[i].FramesChanged != want[i].FramesChanged {
				t.Fatalf("workers=%d: module %d metadata differs from serial", workers, i)
			}
		}
	}
	if !proj.Base.Equal(before) {
		t.Fatal("GeneratePartialAll modified the base configuration")
	}
	if _, err := proj.GeneratePartialAll(context.Background(), mods, GenerateOptions{WriteBack: true}); err == nil {
		t.Fatal("GeneratePartialAll accepted WriteBack")
	}
}

// alwaysFail simulates a dead configuration link: every download errors and
// the device keeps its state.
type alwaysFail struct{ xhwif.HWIF }

func (alwaysFail) DownloadCtx(context.Context, []byte) (xhwif.DownloadStats, error) {
	return xhwif.DownloadStats{}, context.DeadlineExceeded
}

// TestGenerateAndDownloadCtxCancellation checks the context plumbing and the
// transactional contract: a cancelled context aborts before touching the
// board, and a failed download leaves the project view untouched so it never
// diverges from the device.
func TestGenerateAndDownloadCtxCancellation(t *testing.T) {
	base, variant := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	m, err := proj.AddModule("v", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	board := xhwif.NewBoard(proj.Part)
	if _, err := board.Download(base.Bitstream); err != nil {
		t.Fatal(err)
	}
	pre := board.Readback()
	preBase := proj.Base.Clone()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := proj.GenerateAndDownload(ctx, m, board, GenerateOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !board.Readback().Equal(pre) {
		t.Fatal("cancelled download touched the board")
	}

	// Failed download: project Base must not advance past the device.
	if _, _, err := proj.GenerateAndDownload(context.Background(), m, alwaysFail{board}, GenerateOptions{}); err == nil {
		t.Fatal("dead link reported success")
	}
	if !proj.Base.Equal(preBase) {
		t.Fatal("project view advanced although the download failed")
	}
	if !board.Readback().Equal(pre) {
		t.Fatal("failed download changed the device")
	}
}

// TestGeneratePartialAllCtxCancelled checks that a pre-cancelled context
// returns context.Canceled without generating anything.
func TestGeneratePartialAllCtxCancelled(t *testing.T) {
	base, variant := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	m, err := proj.AddModule("v", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := proj.GeneratePartialAll(ctx, []*Module{m}, GenerateOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestResultsDoNotAliasScratch: computePartial, bitlint.VerifyPartial and
// Board.Download work in scratch memories they hand back to the free list,
// so what they return must hold none of it. Each draws every scratch the
// free list can hand out, overwrites it and releases it; the Result, the
// bitlint Report's image, the board's state and the project base must not
// change (Delta and Compress included).
func TestResultsDoNotAliasScratch(t *testing.T) {
	base, variant := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	m, err := proj.AddModule("v", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	board := xhwif.NewBoard(proj.Part)
	if _, err := board.Download(base.Bitstream); err != nil {
		t.Fatal(err)
	}
	var results []*Result
	var streams [][]byte
	for _, opts := range []GenerateOptions{{}, {Delta: true}, {Compress: true}} {
		res, err := proj.GeneratePartial(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		streams = append(streams, bytes.Clone(res.Bitstream))
	}
	rep, err := bitlint.VerifyPartial(proj.Base, results[0].Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	image := rep.Frames.Clone()
	if _, err := board.Download(results[0].Bitstream); err != nil {
		t.Fatal(err)
	}
	dev, wantBase := board.Readback(), proj.Base.Clone()

	ones := make([]uint32, proj.Part.TotalFrames()*proj.Part.FrameWords())
	for i := range ones {
		ones[i] = ^uint32(0)
	}
	var drawn []*frames.Memory
	for i := 0; i < 16; i++ {
		s := proj.Base.Scratch()
		if err := s.SetFrames(proj.Part.FirstFAR(), ones); err != nil {
			t.Fatal(err)
		}
		drawn = append(drawn, s)
	}
	for _, s := range drawn {
		s.Release()
	}

	for i, res := range results {
		if !bytes.Equal(res.Bitstream, streams[i]) {
			t.Fatalf("result %d's bitstream changed with the scratch memories", i)
		}
	}
	if !rep.Frames.Equal(image) {
		t.Fatal("bitlint report's image changed with the scratch memories")
	}
	if !board.Readback().Equal(dev) {
		t.Fatal("board state changed with the scratch memories")
	}
	if !proj.Base.Equal(wantBase) {
		t.Fatal("project base changed with the scratch memories")
	}
}
