package place

import (
	"context"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/netlist"
	"repro/internal/phys"
	"repro/internal/ucf"
)

func counterDesign(t *testing.T, bits int) *netlist.Design {
	t.Helper()
	d, err := designs.Standalone(designs.Counter{Bits: bits}, "cnt", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPlaceUnconstrained(t *testing.T) {
	p := device.MustByName("XCV50")
	nl := counterDesign(t, 8)
	d, err := PlaceCtx(context.Background(), p, nl, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CheckPlacement(); err != nil {
		t.Fatal(err)
	}
	if len(d.Cells) != len(nl.Cells) {
		t.Fatalf("placed %d cells, want %d", len(d.Cells), len(nl.Cells))
	}
}

func TestPlaceDeterministic(t *testing.T) {
	p := device.MustByName("XCV50")
	nl1 := counterDesign(t, 6)
	nl2 := counterDesign(t, 6)
	d1, err := PlaceCtx(context.Background(), p, nl1, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := PlaceCtx(context.Background(), p, nl2, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, c1 := range nl1.Cells {
		c2, ok := nl2.Cell(c1.Name)
		if !ok {
			t.Fatalf("cell %q missing from second build", c1.Name)
		}
		if d1.Cells[c1] != d2.Cells[c2] {
			t.Fatalf("cell %q placed at %v vs %v across equal seeds",
				c1.Name, d1.Cells[c1], d2.Cells[c2])
		}
	}
}

func TestPlaceHonoursRegion(t *testing.T) {
	p := device.MustByName("XCV50")
	nl := counterDesign(t, 8)
	cons := ucf.New()
	rg := frames.Region{R1: 2, C1: 3, R2: 7, C2: 8}
	cons.AddGroup("u1/*", "AG_u1", rg)
	d, err := PlaceCtx(context.Background(), p, nl, Options{Seed: 7, Constraints: cons})
	if err != nil {
		t.Fatal(err)
	}
	for c, site := range d.Cells {
		if !rg.Contains(site.Row, site.Col) {
			t.Fatalf("cell %q at %v escapes region %v", c.Name, site, rg)
		}
	}
}

func TestPlaceHonoursInstLoc(t *testing.T) {
	p := device.MustByName("XCV50")
	nl := counterDesign(t, 4)
	cons := ucf.New()
	loc := ucf.SliceLoc{Row: 5, Col: 6, Slice: 1}
	cons.InstLocs["u1/q0"] = loc
	d, err := PlaceCtx(context.Background(), p, nl, Options{Seed: 3, Constraints: cons})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := nl.Cell("u1/q0")
	site := d.Cells[c]
	if site.Row != loc.Row || site.Col != loc.Col || site.Slice != loc.Slice {
		t.Fatalf("LOC ignored: %v vs %v", site, loc)
	}
}

func TestPlaceRegionCapacity(t *testing.T) {
	p := device.MustByName("XCV50")
	nl := counterDesign(t, 16) // well over 4 LEs
	cons := ucf.New()
	cons.AddGroup("u1/*", "AG", frames.Region{R1: 0, C1: 0, R2: 0, C2: 0}) // 1 CLB = 4 LEs
	if _, err := PlaceCtx(context.Background(), p, nl, Options{Seed: 1, Constraints: cons}); err == nil {
		t.Fatal("over-capacity region accepted")
	}
}

func TestPlaceRespectsPortPadLocs(t *testing.T) {
	p := device.MustByName("XCV50")
	nl := counterDesign(t, 4)
	cons := ucf.New()
	cons.NetLocs["clk"] = "P_L3"
	cons.NetLocs["out0"] = "P_T5"
	d, err := PlaceCtx(context.Background(), p, nl, Options{Seed: 1, Constraints: cons})
	if err != nil {
		t.Fatal(err)
	}
	clk, _ := nl.Port("clk")
	if d.Ports[clk].Name() != "P_L3" {
		t.Fatalf("clk on %s, want P_L3", d.Ports[clk].Name())
	}
	out0, _ := nl.Port("out0")
	if d.Ports[out0].Name() != "P_T5" {
		t.Fatalf("out0 on %s, want P_T5", d.Ports[out0].Name())
	}
}

func TestPlaceConflictingPadLocs(t *testing.T) {
	p := device.MustByName("XCV50")
	nl := counterDesign(t, 4)
	cons := ucf.New()
	cons.NetLocs["clk"] = "P_L3"
	cons.NetLocs["out0"] = "P_L3"
	if _, err := PlaceCtx(context.Background(), p, nl, Options{Seed: 1, Constraints: cons}); err == nil {
		t.Fatal("duplicate pad LOC accepted")
	}
}

func TestPlaceQualityUnderConstraint(t *testing.T) {
	// Constrained placement should keep the module's wirelength bounded by
	// the region span, showing the annealer actually optimises inside it.
	p := device.MustByName("XCV50")
	nl := counterDesign(t, 8)
	cons := ucf.New()
	rg := frames.Region{R1: 0, C1: 0, R2: 3, C2: 3}
	cons.AddGroup("u1/*", "AG", rg)
	d, err := PlaceCtx(context.Background(), p, nl, Options{Seed: 5, Constraints: cons})
	if err != nil {
		t.Fatal(err)
	}
	r1, c1, r2, c2, ok := d.BoundingBox()
	if !ok {
		t.Fatal("no cells placed")
	}
	if r2-r1 > 3 || c2-c1 > 3 {
		t.Fatalf("bounding box (%d,%d)-(%d,%d) exceeds region", r1, c1, r2, c2)
	}
}

func TestPackPairsLUTWithFF(t *testing.T) {
	// A LUT feeding exactly one FF should share the FF's site.
	p := device.MustByName("XCV50")
	d := netlist.NewDesign("pair")
	a, _ := d.AddPort("a", netlist.In, nil)
	clk, _ := d.AddPort("clk", netlist.In, nil)
	lut, err := d.AddLUT("u/l", 0x5555, a.Net)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := d.AddDFF("u/f", lut.Out, clk.Net, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("q", netlist.Out, ff.Out); err != nil {
		t.Fatal(err)
	}
	pd, err := PlaceCtx(context.Background(), p, d, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pd.Cells[lut] != pd.Cells[ff] {
		t.Fatalf("LUT at %v, FF at %v: not packed", pd.Cells[lut], pd.Cells[ff])
	}
}

func TestPlaceLocOutsideRegionRejected(t *testing.T) {
	p := device.MustByName("XCV50")
	nl := counterDesign(t, 4)
	cons := ucf.New()
	cons.AddGroup("u1/*", "AG", frames.Region{R1: 0, C1: 0, R2: 3, C2: 3})
	cons.InstLocs["u1/q0"] = ucf.SliceLoc{Row: 10, Col: 10, Slice: 0}
	if _, err := PlaceCtx(context.Background(), p, nl, Options{Seed: 1, Constraints: cons}); err == nil {
		t.Fatal("LOC outside AREA_GROUP accepted")
	}
}

func TestGuidedPlacementKeepsSitesAtLowEffort(t *testing.T) {
	p := device.MustByName("XCV50")
	nl1 := counterDesign(t, 8)
	d1, err := PlaceCtx(context.Background(), p, nl1, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	guide := map[string]phys.Site{}
	for c, s := range d1.Cells {
		guide[c.Name] = s
	}
	// Re-place the same design, guided, at negligible effort: cells should
	// overwhelmingly keep their previous sites.
	nl2 := counterDesign(t, 8)
	d2, err := PlaceCtx(context.Background(), p, nl2, Options{Seed: 99, Effort: 0.01, Guide: guide})
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for c2, s2 := range d2.Cells {
		if guide[c2.Name] == s2 {
			kept++
		}
	}
	if kept < len(d2.Cells)*3/4 {
		t.Fatalf("only %d of %d cells kept their guided sites", kept, len(d2.Cells))
	}
}

func TestGuidedPlacementIgnoresStaleGuides(t *testing.T) {
	p := device.MustByName("XCV50")
	nl := counterDesign(t, 4)
	guide := map[string]phys.Site{
		"u1/q0": {Row: 999, Col: 0, Slice: 0, LE: 0}, // invalid: must be ignored
		"ghost": {Row: 1, Col: 1, Slice: 0, LE: 0},   // unknown cell: harmless
	}
	if _, err := PlaceCtx(context.Background(), p, nl, Options{Seed: 5, Guide: guide}); err != nil {
		t.Fatalf("stale guide broke placement: %v", err)
	}
}
