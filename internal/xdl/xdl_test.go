package xdl

import (
	"context"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/phys"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/ucf"
)

// routedDesign produces a placed-and-routed counter for round-trip tests.
func routedDesign(t *testing.T) *phys.Design {
	t.Helper()
	nl, err := designs.Standalone(designs.Counter{Bits: 6}, "cnt", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	cons := ucf.New()
	cons.AddGroup("u1/*", "AG_u1", frames.Region{R1: 1, C1: 1, R2: 8, C2: 8})
	d, err := place.PlaceCtx(context.Background(), device.MustByName("XCV50"), nl, place.Options{Seed: 4, Constraints: cons})
	if err != nil {
		t.Fatal(err)
	}
	if err := route.RouteCtx(context.Background(), d, route.Options{}); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEmitParseRoundTrip(t *testing.T) {
	d := routedDesign(t)
	text, err := Emit(d)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckPlacement(); err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckRoutes(); err != nil {
		t.Fatal(err)
	}
	// Second emit must be byte-identical: the codec is canonical.
	text2, err := Emit(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if text != text2 {
		t.Fatal("XDL round trip is not canonical")
	}
}

func TestRoundTripPreservesEverything(t *testing.T) {
	d := routedDesign(t)
	text, err := Emit(d)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(text)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Part.Name != d.Part.Name {
		t.Fatalf("part %s != %s", loaded.Part.Name, d.Part.Name)
	}
	if len(loaded.Netlist.Cells) != len(d.Netlist.Cells) {
		t.Fatalf("cells %d != %d", len(loaded.Netlist.Cells), len(d.Netlist.Cells))
	}
	for _, c := range d.Netlist.Cells {
		lc, ok := loaded.Netlist.Cell(c.Name)
		if !ok {
			t.Fatalf("cell %q lost", c.Name)
		}
		if lc.Init != c.Init || lc.Kind != c.Kind {
			t.Fatalf("cell %q: init/kind changed", c.Name)
		}
		if loaded.Cells[lc] != d.Cells[c] {
			t.Fatalf("cell %q: site %v != %v", c.Name, loaded.Cells[lc], d.Cells[c])
		}
	}
	if loaded.RoutedPIPCount() != d.RoutedPIPCount() {
		t.Fatalf("pips %d != %d", loaded.RoutedPIPCount(), d.RoutedPIPCount())
	}
	for _, p := range d.Netlist.Ports {
		lp, ok := loaded.Netlist.Port(p.Name)
		if !ok {
			t.Fatalf("port %q lost", p.Name)
		}
		if loaded.Ports[lp] != d.Ports[p] {
			t.Fatalf("port %q: pad changed", p.Name)
		}
	}
}

func TestEmitContainsPaperShapedStatements(t *testing.T) {
	d := routedDesign(t)
	text, err := Emit(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"design \"cnt\" XCV50", "inst \"u1/", "placed CLB_R", "outpin", "pip R", "->"} {
		if !strings.Contains(text, want) {
			t.Errorf("emitted XDL missing %q", want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`inst "a" "LUT4", placed CLB_R1C1.S0.F ;`,                   // missing cfg
		`inst "a" "LUT4", placed CLB_R1C1.S0.Q, cfg "INIT::0000" ;`, // bad LE
		`inst "a" "LUT4", placed CLB_R1C1.S9.F, cfg "INIT::0000" ;`, // bad slice
		`inst "a" "LUT4", placed CLB_R1C1.S0.F, cfg "NOINIT" ;`,     // missing INIT
		`design "x" XCV50 ; net "n" , outpin "ghost" X ;`,           // unknown inst
		`design "x" XCV50 ; port "p" sideways P_L1 ;`,               // bad dir
		`design "x" XCV50 ; net "n" , pip R1C1 E0 E1 ;`,             // missing ->
		`frobnicate "x" ;`,         // unknown stmt
		`net "n" , outpin "a" X ;`, // inst before design... also unknown inst
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) should fail", text)
		}
	}
	if _, err := Parse(``); err == nil {
		t.Error("empty XDL should fail (no design statement)")
	}
}

func TestPinNameMapping(t *testing.T) {
	cases := []struct{ kind, phys, logical string }{
		{"LUT4", "F1", "I0"}, {"LUT4", "G4", "I3"}, {"LUT4", "X", "O"}, {"LUT4", "Y", "O"},
		{"DFF", "XQ", "Q"}, {"DFF", "BY", "D"}, {"DFF", "CLK", "C"}, {"DFF", "SR", "R"},
	}
	for _, tc := range cases {
		got, err := logicalPin(tc.kind, tc.phys)
		if err != nil || got != tc.logical {
			t.Errorf("logicalPin(%s, %s) = %s, %v; want %s", tc.kind, tc.phys, got, err, tc.logical)
		}
	}
	if _, err := logicalPin("LUT4", "Z9"); err == nil {
		t.Error("bogus pin accepted")
	}
}

func TestTokenizeQuotedStrings(t *testing.T) {
	toks := tokenize(`inst "a b/c" "LUT4", placed X, cfg "INIT::0001 FOO::2"`)
	want := []string{"inst", "a b/c", "LUT4", "placed", "X", "cfg", "INIT::0001 FOO::2"}
	if len(toks) != len(want) {
		t.Fatalf("tokens %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, toks[i], want[i])
		}
	}
}
