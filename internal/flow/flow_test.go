package flow

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/ncd"
	"repro/internal/netlist"
	"repro/internal/parallel"
	"repro/internal/ucf"
	"repro/internal/xdl"
)

// ncdOf encodes a run's physical design as NCD, the bytes cmd/par writes.
func ncdOf(tb testing.TB, a *Artifacts) []byte {
	tb.Helper()
	data, err := ncd.Marshal(a.Phys)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func twoInstances() []designs.Instance {
	return []designs.Instance{
		{Prefix: "u1/", Gen: designs.Counter{Bits: 6}},
		{Prefix: "u2/", Gen: designs.SBoxBank{N: 8, Seed: 3}},
	}
}

func TestBuildBase(t *testing.T) {
	p := device.MustByName("XCV50")
	base, err := BuildBase(context.Background(), p, twoInstances(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Regions cover disjoint full-height column spans.
	r1, r2 := base.Regions["u1/"], base.Regions["u2/"]
	if r1.Overlaps(r2) {
		t.Fatalf("regions overlap: %v and %v", r1, r2)
	}
	if r1.R1 != 0 || r1.R2 != p.Rows-1 || r2.R1 != 0 || r2.R2 != p.Rows-1 {
		t.Fatalf("regions not full height: %v %v", r1, r2)
	}
	// Every cell sits inside its instance's region.
	for c, site := range base.Phys.Cells {
		var rg frames.Region
		switch {
		case hasPrefix(c.Name, "u1/"):
			rg = r1
		case hasPrefix(c.Name, "u2/"):
			rg = r2
		default:
			t.Fatalf("cell %q belongs to no instance", c.Name)
		}
		if !rg.Contains(site.Row, site.Col) {
			t.Fatalf("cell %q at %v outside %v", c.Name, site, rg)
		}
	}
	// Module routing is contained in the module's columns.
	for n, r := range base.Phys.Routes {
		if r.Global >= 0 {
			continue
		}
		var rg frames.Region
		switch {
		case hasPrefix(n.Name, "u1"):
			rg = r1
		case hasPrefix(n.Name, "u2"):
			rg = r2
		default:
			continue
		}
		for _, pip := range r.PIPs {
			if pip.Col < rg.C1 || pip.Col > rg.C2 {
				t.Fatalf("net %q pip at col %d outside its region %v", n.Name, pip.Col+1, rg)
			}
		}
	}
	// Artifacts are complete and consistent.
	if base.UCF == "" || base.XDL == "" || base.Phys == nil || len(base.Bitstream) == 0 {
		t.Fatal("missing artifacts")
	}
	if _, err := xdl.Load(base.XDL); err != nil {
		t.Fatalf("base XDL does not load: %v", err)
	}
	if part, err := bitstream.InferPart(base.Bitstream); err != nil || part != p {
		t.Fatalf("bitstream part inference: %v, %v", part, err)
	}
	if base.Times.Total() <= 0 {
		t.Fatal("no stage times recorded")
	}
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

func TestBuildVariantInheritsInterface(t *testing.T) {
	p := device.MustByName("XCV50")
	base, err := BuildBase(context.Background(), p, twoInstances(), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	va, err := BuildVariant(context.Background(), base, "u1/", designs.LFSR{Bits: 6}, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The variant's ports sit on the same pads as the base instance's.
	for _, port := range va.Netlist.Ports {
		pad := va.Phys.Ports[port].Name()
		basePort := port.Name
		if basePort != "clk" {
			basePort = "u1_" + basePort
		}
		if base.Pads[basePort] != pad {
			t.Fatalf("port %q on pad %s, base used %s", port.Name, pad, base.Pads[basePort])
		}
	}
	// The variant stays inside the instance's region columns.
	rg := base.Regions["u1/"]
	for _, site := range va.Phys.Cells {
		if !rg.Contains(site.Row, site.Col) {
			t.Fatalf("variant cell outside region: %v not in %v", site, rg)
		}
	}
	for n, r := range va.Phys.Routes {
		if r.Global >= 0 {
			continue
		}
		for _, pip := range r.PIPs {
			if pip.Col < rg.C1 || pip.Col > rg.C2 {
				t.Fatalf("variant net %q escapes region columns", n.Name)
			}
		}
	}
}

func TestBuildVariantUnknownInstance(t *testing.T) {
	p := device.MustByName("XCV50")
	base, err := BuildBase(context.Background(), p, twoInstances(), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildVariant(context.Background(), base, "u9/", designs.Counter{Bits: 2}, Options{Seed: 1}); err == nil {
		t.Fatal("unknown instance accepted")
	}
}

func TestBuildFull(t *testing.T) {
	p := device.MustByName("XCV50")
	full, err := BuildFull(context.Background(), p, twoInstances(), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Bitstream) == 0 {
		t.Fatal("no bitstream")
	}
}

func TestFloorplanErrors(t *testing.T) {
	p := device.MustByName("XCV50")
	if _, _, err := Floorplan(p, nil); err == nil {
		t.Fatal("empty floorplan accepted")
	}
	// Too many instances for the columns (each needs >= 2).
	var many []designs.Instance
	for i := 0; i < p.Cols; i++ {
		many = append(many, designs.Instance{
			Prefix: string(rune('a'+i%26)) + string(rune('0'+i/26)) + "/",
			Gen:    designs.Counter{Bits: 2},
		})
	}
	if _, _, err := Floorplan(p, many); err == nil {
		t.Fatal("oversubscribed floorplan accepted")
	}
}

func TestGuidedVariantReimplementation(t *testing.T) {
	// Re-implementing a revised module guided by its previous placement at
	// low effort must be faster than the original run and keep most sites —
	// the incremental-design support the paper's Figure 2 guide files
	// provide.
	p := device.MustByName("XCV50")
	base, err := BuildBase(context.Background(), p, twoInstances(), Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := BuildVariant(context.Background(), base, "u2/", designs.SBoxBank{N: 8, Seed: 5}, Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// "Revise" the module: same structure, new LUT contents (seed change).
	v2, err := BuildVariant(context.Background(), base, "u2/", designs.SBoxBank{N: 8, Seed: 6},
		Options{Seed: 13, Effort: 0.05, Guide: GuideFrom(v1)})
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	total := 0
	for c2, s2 := range v2.Phys.Cells {
		total++
		c1, ok := v1.Phys.Netlist.Cell(c2.Name)
		if ok && v1.Phys.Cells[c1] == s2 {
			kept++
		}
	}
	if kept < total*3/4 {
		t.Fatalf("guided re-implementation kept only %d of %d sites", kept, total)
	}
	if v2.Times.Place >= v1.Times.Place {
		t.Logf("note: guided place %v vs original %v (timing noise tolerated)", v2.Times.Place, v1.Times.Place)
	}
}

func TestImplementFromNetlistText(t *testing.T) {
	// The generic entry point: serialise a generated design to .net text,
	// parse it back, and implement it with a UCF.
	p := device.MustByName("XCV50")
	src, err := designs.Standalone(designs.Counter{Bits: 5}, "cnt", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	text, err := netlist.EmitText(src)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := netlist.ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	cons := ucf.New()
	cons.AddGroup("u1/*", "AG", frames.Region{R1: 0, C1: 0, R2: p.Rows - 1, C2: 7})
	a, err := Implement(context.Background(), p, nl, cons, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Bitstream) == 0 || a.XDL == "" {
		t.Fatal("implement produced no artifacts")
	}
	// Region honoured: all cells inside, and cell-to-cell nets contained.
	for _, site := range a.Phys.Cells {
		if site.Col > 7 {
			t.Fatalf("cell escaped constrained columns: %v", site)
		}
	}
	for n, r := range a.Phys.Routes {
		if r.Global >= 0 || n.DriverPort != nil || len(n.SinkPorts) > 0 {
			continue
		}
		for _, pip := range r.PIPs {
			if pip.Col > 7 {
				t.Fatalf("internal net %q routed outside constrained columns", n.Name)
			}
		}
	}
}

func TestBuildVariantsMatchesSerial(t *testing.T) {
	p := device.MustByName("XCV50")
	base, err := BuildBase(context.Background(), p, twoInstances(), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	specs := []VariantSpec{
		{Prefix: "u1/", Gen: designs.LFSR{Bits: 6, Taps: []int{5, 0}}, Opts: Options{Seed: 10}},
		{Prefix: "u1/", Gen: designs.Counter{Bits: 6}, Opts: Options{Seed: 11}},
		{Prefix: "u2/", Gen: designs.SBoxBank{N: 8, Seed: 7}, Opts: Options{Seed: 12}},
		{Prefix: "u2/", Gen: designs.SBoxBank{N: 8, Seed: 8}, Opts: Options{Seed: 13}},
	}
	serial := make([]*Artifacts, len(specs))
	for i, s := range specs {
		a, err := BuildVariant(context.Background(), base, s.Prefix, s.Gen, s.Opts)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = a
	}
	concurrent, err := BuildVariants(context.Background(), base, specs, parallel.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if serial[i].XDL != concurrent[i].XDL {
			t.Fatalf("spec %d: XDL differs between serial and 4-worker builds", i)
		}
		if serial[i].UCF != concurrent[i].UCF {
			t.Fatalf("spec %d: UCF differs between serial and 4-worker builds", i)
		}
		if !bytes.Equal(serial[i].Bitstream, concurrent[i].Bitstream) {
			t.Fatalf("spec %d: bitstream differs between serial and 4-worker builds", i)
		}
	}
}

func TestBuildVariantsReportsLowestIndexError(t *testing.T) {
	p := device.MustByName("XCV50")
	base, err := BuildBase(context.Background(), p, twoInstances(), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	specs := []VariantSpec{
		{Prefix: "u1/", Gen: designs.Counter{Bits: 6}, Opts: Options{Seed: 1}},
		{Prefix: "nope/", Gen: designs.Counter{Bits: 6}, Opts: Options{Seed: 1}},
		{Prefix: "also-nope/", Gen: designs.Counter{Bits: 6}, Opts: Options{Seed: 1}},
	}
	_, err = BuildVariants(context.Background(), base, specs, parallel.WithWorkers(3))
	if err == nil || !strings.Contains(err.Error(), `"nope/"`) {
		t.Fatalf("want the index-1 error, got %v", err)
	}
}

func TestBuildFullManyMatchesSerial(t *testing.T) {
	p := device.MustByName("XCV50")
	combos := [][]designs.Instance{
		twoInstances(),
		{
			{Prefix: "u1/", Gen: designs.LFSR{Bits: 6, Taps: []int{5, 0}}},
			{Prefix: "u2/", Gen: designs.SBoxBank{N: 8, Seed: 3}},
		},
	}
	many, err := BuildFullMany(context.Background(), p, combos, Options{Seed: 5}, parallel.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, combo := range combos {
		one, err := BuildFull(context.Background(), p, combo, Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one.Bitstream, many[i].Bitstream) {
			t.Fatalf("combo %d: bitstream differs between serial and concurrent builds", i)
		}
	}
}
