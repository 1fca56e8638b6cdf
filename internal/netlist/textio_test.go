package netlist

import (
	"fmt"
	"strings"
	"testing"
)

func buildSample(t testing.TB) *Design {
	t.Helper()
	d := NewDesign("sample")
	a, _ := d.AddPort("a", In, nil)
	b, _ := d.AddPort("b", In, nil)
	clk, _ := d.AddPort("clk", In, nil)
	ce, _ := d.AddPort("ce", In, nil)
	lut, err := d.AddLUT("u1/and", 0x8888, a.Net, b.Net)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := d.AddDFF("u1/q", lut.Out, clk.Net, ce.Net, nil)
	if err != nil {
		t.Fatal(err)
	}
	ff.Init = 1
	if _, err := d.AddPort("q", Out, ff.Out); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTextRoundTrip(t *testing.T) {
	d := buildSample(t)
	text, err := EmitText(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseText(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	// Canonical: emit(parse(emit(d))) == emit(d).
	text2, err := EmitText(back)
	if err != nil {
		t.Fatal(err)
	}
	if text != text2 {
		t.Fatalf("text round trip not canonical:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
	}
	// Structure preserved.
	if back.Name != d.Name || len(back.Cells) != len(d.Cells) || len(back.Ports) != len(d.Ports) {
		t.Fatal("round trip lost structure")
	}
	lut, ok := back.Cell("u1/and")
	if !ok || lut.Init != 0x8888 || len(lut.Inputs) != 2 {
		t.Fatalf("lut lost: %+v", lut)
	}
	ff, ok := back.Cell("u1/q")
	if !ok || ff.Init != 1 || ff.CE == nil || ff.Reset != nil {
		t.Fatalf("dff lost: %+v", ff)
	}
	clkNet, _ := back.Net(mustPort(t, back, "clk").Net.Name)
	if !clkNet.IsClock {
		t.Fatal("clock flag lost")
	}
}

func mustPort(t *testing.T, d *Design, name string) *Port {
	t.Helper()
	p, ok := d.Port(name)
	if !ok {
		t.Fatalf("port %q missing", name)
	}
	return p
}

func TestTextPadsPreserved(t *testing.T) {
	d := buildSample(t)
	p, _ := d.Port("clk")
	p.Pad = "P_L1"
	text, err := EmitText(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	if mustPort(t, back, "clk").Pad != "P_L1" {
		t.Fatal("pad LOC lost")
	}
}

func TestParseTextErrors(t *testing.T) {
	bad := []string{
		``,
		`net "n"`, // no design first
		"design \"d\"\nlut \"l\" init=ZZ in=\"x\" out=\"y\"",               // bad init + undeclared nets
		"design \"d\"\nnet \"n\"\nlut \"l\" init=0 in=\"n\" out=\"ghost\"", // undeclared out
		"design \"d\"\nnet \"n\"\nport \"p\" sideways net=\"n\"",
		"design \"d\"\nnet \"n\"\ndff \"f\" init=0 d=\"n\" out=\"n\"", // missing clock
		"design \"d\"\nwarp \"x\"",
		"design \"d\"\nnet \"unterminated",
		"design \"d\"\nnet \"n\"\ndesign \"e\"\nport \"p\" in net=\"n\"", // second design
		"design \"d\"\nnet \"a,b\"",                                      // comma in a net name
	}
	for _, text := range bad {
		if _, err := ParseText(text); err == nil {
			t.Errorf("ParseText(%q) should fail", text)
		}
	}
}

func TestTextNamesWithSpaces(t *testing.T) {
	d := NewDesign("odd names")
	a, _ := d.AddPort("in port", In, nil)
	lut, err := d.AddLUT("cell with space", 0x5555, a.Net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("out port", Out, lut.Out); err != nil {
		t.Fatal(err)
	}
	text, err := EmitText(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseText(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if _, ok := back.Cell("cell with space"); !ok {
		t.Fatal("spaced name lost")
	}
	if !strings.Contains(text, `"cell with space"`) {
		t.Fatal("names not quoted")
	}
}

// TestTextRoundTripKeepsNames round-trips names the format carries verbatim
// (backslashes, "=", control bytes) and checks that EmitText rejects the
// names ParseText could not read back.
func TestTextRoundTripKeepsNames(t *testing.T) {
	d := NewDesign("top\x01")
	a, _ := d.AddPort(`\a=1`, In, nil)
	lut, err := d.AddLUT(`\bus[3]`, 0x5555, a.Net)
	if err != nil {
		t.Fatal(err)
	}
	clk, _ := d.AddPort("clk", In, nil)
	if _, err := d.AddDFF("ce=x", lut.Out, clk.Net, nil, nil); err != nil {
		t.Fatal(err)
	}
	text, err := EmitText(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseText(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if back.Name != d.Name {
		t.Errorf("design name %q came back as %q", d.Name, back.Name)
	}
	for _, name := range []string{`\bus[3]`, "ce=x"} {
		if _, ok := back.Cell(name); !ok {
			t.Errorf("cell %q lost:\n%s", name, text)
		}
	}
	if ff, _ := back.Cell("ce=x"); ff != nil && ff.CE != nil {
		t.Error("a flip-flop's name was read as its ce attribute")
	}
	if _, ok := back.Port(`\a=1`); !ok {
		t.Errorf("port %q lost:\n%s", `\a=1`, text)
	}

	for _, bad := range []func(*Design){
		func(d *Design) { d.Name = "" },
		func(d *Design) { d.Name = "two\nlines" },
		func(d *Design) { d.Cells[0].Name = `say "hi"` },
		func(d *Design) { d.Nets[0].Name = "a,b" },
		func(d *Design) { d.Ports[0].Pad = "P\n1" },
	} {
		d := buildSample(t)
		bad(d)
		if text, err := EmitText(d); err == nil {
			t.Errorf("EmitText accepted a name ParseText cannot read back:\n%s", text)
		}
	}
}

// TestParseTextSinkOrderStable parses a flip-flop whose D and CE pins share
// a net: the net's sinks must come back in the same order on every parse,
// since the placer and router walk them in order.
func TestParseTextSinkOrderStable(t *testing.T) {
	text := "design \"d\"\nnet \"n\"\nnet \"clk\"\nnet \"q\"\n" +
		"port \"n\" in net=\"n\"\nport \"clk\" in net=\"clk\"\n" +
		"dff \"f\" init=0 d=\"n\" c=\"clk\" ce=\"n\" r=\"n\" out=\"q\"\n"
	var first string
	for i := 0; i < 20; i++ {
		d, err := ParseText(text)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := d.Net("n")
		if got := fmt.Sprint(n.Sinks); i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("parse %d listed sinks %s, parse 0 %s", i, got, first)
		}
	}
}

// FuzzParseText requires ParseText never to panic and, for every text it
// accepts, emit∘parse∘emit to be a fixed point.
func FuzzParseText(f *testing.F) {
	text, err := EmitText(buildSample(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(text)
	f.Add("design \"\x00\x1b\x7f\"\n")
	f.Fuzz(func(t *testing.T, text string) {
		d, err := ParseText(text)
		if err != nil {
			return
		}
		first, err := EmitText(d)
		if err != nil {
			t.Fatalf("a parsed design does not emit: %v", err)
		}
		back, err := ParseText(first)
		if err != nil {
			t.Fatalf("emitted text does not parse: %v\n%q", err, first)
		}
		second, err := EmitText(back)
		if err != nil {
			t.Fatal(err)
		}
		if first != second {
			t.Fatalf("emit is not a fixed point:\n%q\n%q", first, second)
		}
	})
}
