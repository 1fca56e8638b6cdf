package bitgen

import (
	"context"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/jbits"
	"repro/internal/netlist"
	"repro/internal/phys"
	"repro/internal/place"
	"repro/internal/route"
)

func routed(t *testing.T, gen designs.Generator, seed int64) *phys.Design {
	t.Helper()
	nl, err := designs.Standalone(gen, "d", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	d, err := place.PlaceCtx(context.Background(), device.MustByName("XCV50"), nl, place.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := route.RouteCtx(context.Background(), d, route.Options{}); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateProgramsLUTsAndFFs(t *testing.T) {
	d := routed(t, designs.SBoxBank{N: 3, Seed: 5}, 1)
	mem, err := Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	jb := jbits.New(mem)
	for _, c := range d.Netlist.Cells {
		site := d.Cells[c]
		switch c.Kind {
		case netlist.KindLUT4:
			lut := device.LUTF
			if site.LE == phys.LEG {
				lut = device.LUTG
			}
			v, err := jb.GetLUT(site.Row, site.Col, site.Slice, lut)
			if err != nil {
				t.Fatal(err)
			}
			if uint16(v) != c.Init {
				t.Fatalf("LUT %q: memory %04x, want %04x", c.Name, v, c.Init)
			}
		case netlist.KindDFF:
			ff := device.SliceCtlFFX
			if site.LE == phys.LEG {
				ff = device.SliceCtlFFY
			}
			on, err := jb.GetSliceCtl(site.Row, site.Col, site.Slice, ff)
			if err != nil || !on {
				t.Fatalf("DFF %q: FF enable bit not set", c.Name)
			}
		}
	}
}

func TestGenerateProgramsAllRoutedPIPs(t *testing.T) {
	d := routed(t, designs.Counter{Bits: 6}, 2)
	mem, err := Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	jb := jbits.New(mem)
	want := 0
	for _, r := range d.Routes {
		want += len(r.PIPs)
		for _, pip := range r.PIPs {
			if !jb.GetPIP(pip) {
				t.Fatalf("routed pip not programmed: tile R%dC%d idx %d",
					pip.Row+1, pip.Col+1, pip.CatalogIdx)
			}
		}
	}
	// Count all active PIPs on the device; must equal the routed set.
	got := 0
	for r := 0; r < mem.Part.Rows; r++ {
		for c := 0; c < mem.Part.Cols; c++ {
			active, err := jb.ActivePIPs(r, c)
			if err != nil {
				t.Fatal(err)
			}
			got += len(active)
		}
	}
	if got != want {
		t.Fatalf("active pips %d, routed pips %d", got, want)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d := routed(t, designs.LFSR{Bits: 5}, 3)
	m1, err := Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	if !m1.Equal(m2) {
		t.Fatal("bitgen not deterministic")
	}
}

func TestFullBitstreamRoundTrip(t *testing.T) {
	d := routed(t, designs.StringMatcher{Pattern: "ab"}, 4)
	mem, err := Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := FullBitstream(d)
	if err != nil {
		t.Fatal(err)
	}
	fresh := frames.New(d.Part)
	if _, err := bitstream.Apply(fresh, bs); err != nil {
		t.Fatal(err)
	}
	if !fresh.Equal(mem) {
		t.Fatal("bitstream application does not reproduce bitgen memory")
	}
}

func TestGenerateTouchesOnlyPlacedColumns(t *testing.T) {
	d := routed(t, designs.Counter{Bits: 3}, 5)
	mem, err := Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	// Every non-zero frame must belong to a column with any activity:
	// placed cells, routed pips, or pad mode bits.
	touched := map[int]bool{}
	for _, site := range d.Cells {
		touched[d.Part.CLBMajor(site.Col)] = true
	}
	for _, r := range d.Routes {
		for _, pip := range r.PIPs {
			touched[d.Part.CLBMajor(pip.Col)] = true
		}
	}
	for port, pad := range d.Ports {
		_ = port
		touched[d.Part.PadModeBit(pad, 0).FAR.Major()] = true
	}
	for _, far := range mem.NonZeroFrames() {
		if !touched[far.Major()] {
			t.Fatalf("frame %v written outside any placed/routed column", far)
		}
	}
}

func TestGenerateRejectsUnroutedDesign(t *testing.T) {
	nl, err := designs.Standalone(designs.Counter{Bits: 3}, "d", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	d, err := place.PlaceCtx(context.Background(), device.MustByName("XCV50"), nl, place.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(d); err == nil {
		t.Fatal("unrouted design accepted")
	}
}
