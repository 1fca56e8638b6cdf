package xdl

import (
	"context"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/netlist"
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

// TestEmitRefusesUnloadableNames holds Emit to what Load reads back: a
// design, cell, port or net name that is empty or holds '"', ';' or a
// newline is refused, naming the object, instead of writing text Load
// misreads.
func TestEmitRefusesUnloadableNames(t *testing.T) {
	nl, err := designs.Standalone(designs.Counter{Bits: 3}, "cnt", "u;1/")
	if err != nil {
		t.Fatal(err)
	}
	d, err := place.PlaceCtx(context.Background(), device.MustByName("XCV50"), nl, place.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := route.RouteCtx(context.Background(), d, route.Options{}); err != nil {
		t.Fatal(err)
	}
	const want = `xdl: cell name "u;1/`
	if _, err := Emit(d); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("Emit with prefix u;1/: %v, want %s...", err, want)
	}

	for _, tc := range []struct {
		rename func(d *phys.Design)
		err    string
	}{
		{func(d *phys.Design) { d.Netlist.Name = "" }, `xdl: design name "" not serialisable (empty, or holds one of "\";\n")`},
		{func(d *phys.Design) { d.Netlist.SortedCells()[0].Name = `u1/"q` }, `xdl: cell name "u1/\"q" not serialisable (empty, or holds one of "\";\n")`},
		{func(d *phys.Design) { d.Netlist.Ports[0].Name = "p\n" }, `xdl: port name "p\n" not serialisable (empty, or holds one of "\";\n")`},
		{func(d *phys.Design) { d.Netlist.SortedNets()[0].Name = "n;" }, `xdl: net name "n;" not serialisable (empty, or holds one of "\";\n")`},
	} {
		d := routedDesign(t)
		tc.rename(d)
		if _, err := Emit(d); err == nil || err.Error() != tc.err {
			t.Errorf("Emit: %v, want %s", err, tc.err)
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

// loadable is a minimal valid XDL text: one LUT fed by an input port.
const loadable = `design "x" XCV50 ;
inst "a" "LUT4", placed CLB_R1C1.S0.F, cfg "INIT::0000" ;
port "p" in P_L1 ;
net "i", outport "p", inpin "a" F1 ;
net "o", outpin "a" X ;
`

// TestParseErrors holds Load's messages verbatim, statement numbers
// included: a statement holding only white space is not counted, a comment
// line is dropped wherever it falls, every ';' ends a statement, and an
// unterminated quote runs to the end of its statement.
func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ text, err string }{
		{`inst "a" "LUT4", placed CLB_R1C1.S0.F ;`, `xdl: statement 1: malformed inst statement [inst a LUT4 placed CLB_R1C1.S0.F]`},
		{`inst "a" "LUT4", placed CLB_R1C1.S0.Q, cfg "INIT::0000" ;`, `xdl: statement 1: bad LE in site "CLB_R1C1.S0.Q"`},
		{`inst "a" "LUT4", placed CLB_R1C1.S9.F, cfg "INIT::0000" ;`, `xdl: statement 1: bad slice in site "CLB_R1C1.S9.F"`},
		{`inst "a" "LUT4", placed CLB_R1C1.S0.F, cfg "NOINIT" ;`, `xdl: statement 1: cfg "NOINIT" missing INIT`},
		{`design "x" XCV50 ; net "n" , outpin "ghost" X ;`, `xdl: statement 2: net "n": pin on undeclared inst "ghost"`},
		{`design "x" XCV50 ; port "p" sideways P_L1 ;`, `xdl: statement 2: malformed port statement [port p sideways P_L1]`},
		{`design "x" XCV50 ; net "n" , pip R1C1 E0 E1 ;`, `xdl: statement 2: net "n": malformed pip`},
		{`frobnicate "x" ;`, `xdl: statement 1: unknown statement "frobnicate"`},
		{`net "n" , outpin "a" X ;`, `xdl: statement 1: net "n": pin on undeclared inst "a"`},
		{``, `xdl: missing design statement`},

		// The quirks of the statement and token scan.
		{"design \"x\"\n# XCV50 ;\n  XCV50 ;\nfrob ;", `xdl: statement 2: unknown statement "frob"`},
		{"# head\r\ndesign \"x\" XCV50 ;\r\n# c ;\r\nfrob ;\r\n", `xdl: statement 2: unknown statement "frob"`},
		{"design \"x\" XCV50 ;\ninst \"a ;", `xdl: statement 2: malformed inst statement [inst a ]`},
		{"design \"x\" XCV50 ;\ninst \"a;b\" \"LUT4\", placed CLB_R1C1.S0.F, cfg \"INIT::0000\" ;", `xdl: statement 2: malformed inst statement [inst a]`},
		{"design \"x\" XCV50 ;\n , ;\n\f;\n ;\nfrob ;", `xdl: statement 3: unknown statement "frob"`},
		{"design \"x\n# c\ny\" XCV50 ;", `xdl: statement 1: design name "x\ny" not serialisable (empty, or holds one of "\";\n")`},
		{"design \"x\" \"XCV50", `xdl: statement 1: device: unknown part "XCV50\n" (known: [XCV100 XCV1000 XCV150 XCV200 XCV300 XCV400 XCV50 XCV600 XCV800])`},

		// Faults the statement shows, named with its number.
		{"design \"x\" XCV50 ;\ninst \"a\" \"FOO\", placed CLB_R1C1.S0.F, cfg \"INIT::0000\" ;", `xdl: statement 2: cell "a" has unknown kind "FOO"`},
		{loadable + `inst "a" "LUT4", placed CLB_R1C2.S0.F, cfg "INIT::0000" ;`, `xdl: statement 6: netlist: duplicate cell "a"`},
		{loadable + `net "o", outpin "a" X ;`, `xdl: statement 6: duplicate net "o"`},
		{loadable + `net "o2", outpin "a" X ;`, `xdl: statement 6: netlist: cell "a" already drives "o"`},
		{loadable + `net "o3", outport "p", inpin "a" F1 ;`, `xdl: statement 6: netlist: a.I0 bound twice`},
		{loadable + `net "r", pip R1C1 E0 -> E1 ;`, `xdl: statement 6: net "r": no pip R1C1.E0 -> R1C1.E1 in tile R1C1`},
		{loadable + `net "r", pip R1C1 FOO -> E1 ;`, `xdl: statement 6: net "r": device: unknown wire "FOO"`},
		{loadable + `net "r", pip R99C1 E0 -> E1 ;`, `xdl: statement 6: net "r": tile "R99C1" out of range for XCV50`},
		{loadable + `net "r", pip R1C1 GLB9 -> E1 ;`, `xdl: statement 6: net "r": device: bad global node "GLB9"`},
		{"net \"r\", pip R1C1 E0 -> E1 ;\n" + loadable, `xdl: statement 1: net "r": pip before design statement`},
		{loadable + `design "y" XCV50 ;`, `xdl: statement 6: second design statement`},
		{strings.Replace(loadable, "P_L1", "P_Q1", 1), `xdl: statement 3: port "p": device: bad pad edge in "P_Q1"`},
		{strings.Replace(loadable, `"a" F1`, `a"b F1`, 1), `xdl: statement 4: net "i": pin on undeclared inst "a\"b"`},
		{strings.Replace(loadable, `"a" F1`, `"a"F1 G1`, 1), `xdl: statement 4: net "i": unexpected token "G1"`},
		{strings.Replace(loadable, `"x"`, `""`, 1), `xdl: statement 1: design name "" not serialisable (empty, or holds one of "\";\n")`},
		{strings.Replace(loadable, `inst "a"`, `inst a"b`, 1), `xdl: statement 2: cell name "a\"b" not serialisable (empty, or holds one of "\";\n")`},
		{strings.Replace(loadable, `net "o"`, "net \"o\n\"", 1), `xdl: statement 5: net name "o\n" not serialisable (empty, or holds one of "\";\n")`},

		// Faults only the whole design shows, reported after the scan.
		{"design \"x\" XCV50 ;\ninst \"a\" \"LUT4\", placed CLB_R1C1.S0.F, cfg \"INIT::0000\" ;\nnet \"o\", outpin \"a\" X ;", `netlist: LUT "a" has no inputs bound`},
		{loadable + `port "q" out P_L2 ;`, `phys: port "q" not referenced by any net`},
		{strings.Replace(loadable, "R1C1", "R99C1", 1), `phys: bind: phys: cell "a" on invalid site R99C1.S0.F`},
		{loadable + "inst \"b\" \"LUT4\", placed CLB_R1C1.S0.F, cfg \"INIT::0000\" ;\nnet \"o4\", outpin \"b\" X, inpin \"b\" F1 ;", `phys: bind: phys: cells "a" and "b" share site R1C1.S0.F`},
	} {
		_, err := Load(tc.text)
		if err == nil || err.Error() != tc.err {
			t.Errorf("Load(%q):\n got %v\nwant %s", tc.text, err, tc.err)
		}
	}
	if _, err := Load(loadable); err != nil {
		t.Fatalf("Load(loadable): %v", err)
	}
}

func TestPinNameMapping(t *testing.T) {
	cases := []struct {
		kind          netlist.CellKind
		phys, logical string
	}{
		{netlist.KindLUT4, "F1", "I0"}, {netlist.KindLUT4, "G4", "I3"}, {netlist.KindLUT4, "X", "O"}, {netlist.KindLUT4, "Y", "O"},
		{netlist.KindDFF, "XQ", "Q"}, {netlist.KindDFF, "BY", "D"}, {netlist.KindDFF, "CLK", "C"}, {netlist.KindDFF, "SR", "R"},
	}
	for _, tc := range cases {
		got, err := logicalPin(tc.kind, tc.phys)
		if err != nil || got != tc.logical {
			t.Errorf("logicalPin(%s, %s) = %s, %v; want %s", tc.kind, tc.phys, got, err, tc.logical)
		}
	}
	if _, err := logicalPin(netlist.KindLUT4, "Z9"); err == nil {
		t.Error("bogus pin accepted")
	}
}

// TestTokenizeQuotedStrings loads names and a cfg string that only quotes
// keep whole: white space, a comma and "->" inside quotes are not
// separators.
func TestTokenizeQuotedStrings(t *testing.T) {
	text := strings.NewReplacer(`"a"`, `"a b/c, ->"`, `"INIT::0000"`, `"FOO::2 INIT::0001"`).Replace(loadable)
	d, err := Load(text)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := d.Netlist.Cell("a b/c, ->")
	if !ok || c.Init != 1 {
		t.Fatalf("cells %v", d.Netlist.Cells)
	}
}
