package ucf

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/frames"
)

const sample = `
# floorplan for the base design
NET "clk" LOC = "P_L1";
NET "u1_out0" LOC = "P_T3";

INST "u1/*" AREA_GROUP = "AG_u1";
AREA_GROUP "AG_u1" RANGE = CLB_R1C1:CLB_R8C12;
INST "u2/*" AREA_GROUP = "AG_u2";
AREA_GROUP "AG_u2" RANGE = CLB_R1C13:CLB_R8C24;
INST "u1/q0" LOC = "CLB_R3C23.S0";
`

func TestParseSample(t *testing.T) {
	c, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if c.NetLocs["clk"] != "P_L1" || c.NetLocs["u1_out0"] != "P_T3" {
		t.Fatalf("net locs = %v", c.NetLocs)
	}
	if got := c.GroupOf("u1/lut5"); got != "AG_u1" {
		t.Fatalf("group of u1/lut5 = %q", got)
	}
	if got := c.GroupOf("u2/q3"); got != "AG_u2" {
		t.Fatalf("group of u2/q3 = %q", got)
	}
	if got := c.GroupOf("top/other"); got != "" {
		t.Fatalf("unconstrained instance got group %q", got)
	}
	rg, ok := c.RegionFor("u1/anything")
	if !ok || rg != (frames.Region{R1: 0, C1: 0, R2: 7, C2: 11}) {
		t.Fatalf("region for u1 = %+v, %v", rg, ok)
	}
	loc, ok := c.InstLocs["u1/q0"]
	if !ok || loc != (SliceLoc{Row: 2, Col: 22, Slice: 0}) {
		t.Fatalf("inst loc = %+v", loc)
	}
}

func TestEmitRoundTrip(t *testing.T) {
	c, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	text := c.Emit()
	c2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse of emitted UCF failed: %v\n%s", err, text)
	}
	if c2.Emit() != text {
		t.Fatal("emit not stable under round trip")
	}
	if len(c2.InstGroups) != len(c.InstGroups) || len(c2.Ranges) != len(c.Ranges) {
		t.Fatal("round trip lost constraints")
	}
}

func TestValidate(t *testing.T) {
	p := device.MustByName("XCV50")
	c, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(p); err != nil {
		t.Fatal(err)
	}
	// Out-of-range region.
	bad := New()
	bad.AddGroup("u/*", "AG", frames.Region{R1: 0, C1: 0, R2: 99, C2: 0})
	if err := bad.Validate(p); err == nil {
		t.Fatal("oversized region passed validation")
	}
	// Group without range.
	bad2 := New()
	bad2.InstGroups = append(bad2.InstGroups, InstGroup{"u/*", "AG"})
	if err := bad2.Validate(p); err == nil {
		t.Fatal("rangeless group passed validation")
	}
	// Bad pad.
	bad3 := New()
	bad3.NetLocs["x"] = "P_L999"
	if err := bad3.Validate(p); err == nil {
		t.Fatal("bad pad passed validation")
	}
	// Bad slice loc.
	bad4 := New()
	bad4.InstLocs["i"] = SliceLoc{Row: 0, Col: 0, Slice: 2}
	if err := bad4.Validate(p); err == nil {
		t.Fatal("bad slice loc passed validation")
	}
}

func TestLastMatchingGroupWins(t *testing.T) {
	c := New()
	c.AddGroup("u1/*", "AG_a", frames.Region{R1: 0, C1: 0, R2: 1, C2: 1})
	c.AddGroup("u1/special*", "AG_b", frames.Region{R1: 2, C1: 2, R2: 3, C2: 3})
	if got := c.GroupOf("u1/special/x"); got != "AG_b" {
		t.Fatalf("got %q, want AG_b", got)
	}
	if got := c.GroupOf("u1/normal"); got != "AG_a" {
		t.Fatalf("got %q, want AG_a", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`NET "x" FOO = "P_L1";`,
		`INST "x" LOC = "CLB_R3C23";`,
		`INST "x" LOC = "CLB_R3C23.S7";`,
		`AREA_GROUP "a" RANGE = CLB_R1C1;`,
		`AREA_GROUP "a" RANGE = R1C1:R2C2;`,
		`WHAT "is" THIS = "thing";`,
		`NET "x"`,
	}
	for _, line := range bad {
		if _, err := Parse(line); err == nil {
			t.Errorf("Parse(%q) should fail", line)
		}
	}
}

func TestParseSliceLoc(t *testing.T) {
	loc, err := ParseSliceLoc("CLB_R10C7.S1")
	if err != nil || loc != (SliceLoc{Row: 9, Col: 6, Slice: 1}) {
		t.Fatalf("loc = %+v, %v", loc, err)
	}
	if loc.String() != "CLB_R10C7.S1" {
		t.Fatalf("String = %q", loc.String())
	}
}

func TestParseRangeNormalises(t *testing.T) {
	rg, err := ParseRange("CLB_R8C12:CLB_R1C1")
	if err != nil {
		t.Fatal(err)
	}
	if rg != (frames.Region{R1: 0, C1: 0, R2: 7, C2: 11}) {
		t.Fatalf("range = %+v", rg)
	}
}

func TestCommentsAndBlanksIgnored(t *testing.T) {
	c, err := Parse("# hi\n\n// also a comment\nNET \"a\" LOC = \"P_L1\";\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.NetLocs) != 1 {
		t.Fatal("comment handling broke parsing")
	}
	if !strings.Contains(c.Emit(), "P_L1") {
		t.Fatal("emit lost the constraint")
	}
}

func TestParseNeverPanicsOnMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	base := sample
	for trial := 0; trial < 300; trial++ {
		b := []byte(base)
		for i := 0; i < 1+rng.Intn(5); i++ {
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: UCF parser panicked: %v", trial, r)
				}
			}()
			_, _ = Parse(string(b))
		}()
	}
}

// FuzzParse: UCF text, as a /v1/generate request carries it, either parses
// or fails with an error. It never panics.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Fuzz(func(t *testing.T, text string) {
		_, _ = Parse(text)
	})
}
