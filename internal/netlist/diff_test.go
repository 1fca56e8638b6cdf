package netlist

import "testing"

// sample builds a tiny design: two LUTs feeding a DFF.
func sample(t *testing.T) *Design {
	t.Helper()
	d := NewDesign("top")
	in, err := d.AddPort("a", In, nil)
	if err != nil {
		t.Fatal(err)
	}
	clkPort, err := d.AddPort("clk", In, nil)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := d.AddLUT("l1", 0x00ff, in.Net)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := d.AddLUT("l2", 0x0f0f, l1.Out)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := d.AddDFF("ff", l2.Out, clkPort.Net, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("q", Out, ff.Out); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCloneIsDeepAndIdentical(t *testing.T) {
	d := sample(t)
	c := d.Clone()
	if c.Fingerprint() != d.Fingerprint() {
		t.Fatal("clone fingerprint differs")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mutating the clone must not touch the original.
	if err := c.SetInit("l1", 0xdead); err != nil {
		t.Fatal(err)
	}
	orig, _ := d.Cell("l1")
	if orig.Init != 0x00ff {
		t.Fatal("clone mutation leaked into the original")
	}
	if c.Fingerprint() == d.Fingerprint() {
		t.Fatal("edited clone still fingerprints like the original")
	}
}

func TestSetInitValidation(t *testing.T) {
	d := sample(t)
	if err := d.SetInit("nope", 1); err == nil {
		t.Fatal("unknown cell accepted")
	}
	if err := d.SetInit("ff", 2); err == nil {
		t.Fatal("out-of-range DFF init accepted")
	}
	if err := d.SetInit("ff", 1); err != nil {
		t.Fatal(err)
	}
}

func TestDiffEmpty(t *testing.T) {
	d := sample(t)
	diff := Diff(d, d.Clone())
	if !diff.Empty() || diff.InitOnly() || diff.Structural() {
		t.Fatalf("identical designs diffed as %s: %s", diff.Class(), diff.Summary())
	}
}

func TestDiffInitOnly(t *testing.T) {
	d := sample(t)
	next := d.Clone()
	if err := next.SetInit("l2", 0xffff); err != nil {
		t.Fatal(err)
	}
	if err := next.SetInit("ff", 1); err != nil {
		t.Fatal(err)
	}
	diff := Diff(d, next)
	if !diff.InitOnly() {
		t.Fatalf("INIT edit classified %s: %s", diff.Class(), diff.Summary())
	}
	if len(diff.InitEdits) != 2 {
		t.Fatalf("%d init edits, want 2", len(diff.InitEdits))
	}
	// Sorted by name: ff before l2.
	if diff.InitEdits[0].Name != "ff" || diff.InitEdits[1].Name != "l2" {
		t.Fatalf("edits out of order: %+v", diff.InitEdits)
	}
	if e := diff.InitEdits[1]; e.OldInit != 0x0f0f || e.NewInit != 0xffff {
		t.Fatalf("l2 edit %+v", e)
	}
}

func TestDiffStructural(t *testing.T) {
	d := sample(t)

	// Added cell.
	next := d.Clone()
	l1, _ := next.Cell("l1")
	if _, err := next.AddLUT("extra", 1, l1.Out); err != nil {
		t.Fatal(err)
	}
	if diff := Diff(d, next); !diff.Structural() || len(diff.AddedCells) != 1 {
		t.Fatalf("added cell classified %s", diff.Class())
	}
	// Removal is the reverse direction.
	if diff := Diff(next, d); len(diff.RemovedCells) != 1 {
		t.Fatalf("removed cell not seen: %s", diff.Summary())
	}

	// Rewire: swap LUT inputs.
	next = d.Clone()
	l2, _ := next.Cell("l2")
	in, _ := next.Net("a")
	l2.Inputs[0] = in
	diff := Diff(d, next)
	if !diff.Structural() {
		t.Fatalf("rewire classified %s", diff.Class())
	}
	found := false
	for _, name := range diff.RewiredCells {
		if name == "l2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("l2 not in rewired set: %v", diff.RewiredCells)
	}

	// Rename.
	next = d.Clone()
	next.Name = "other"
	if diff := Diff(d, next); !diff.NameChanged || !diff.Structural() {
		t.Fatal("rename not structural")
	}
}

func TestDiffOrderChange(t *testing.T) {
	// Same content, different construction order: structural, because the
	// placer iterates construction order.
	// Two independent LUTs on separate inputs: swapping the cells'
	// construction order leaves every signature identical (each net keeps
	// its own single sink) but reorders the Cells and Nets slices.
	build := func(swap bool) *Design {
		d := NewDesign("top")
		a, _ := d.AddPort("a", In, nil)
		b, _ := d.AddPort("b", In, nil)
		add := func(name string, in *Net) {
			if _, err := d.AddLUT(name, 3, in); err != nil {
				t.Fatal(err)
			}
		}
		if swap {
			add("y", b.Net)
			add("x", a.Net)
		} else {
			add("x", a.Net)
			add("y", b.Net)
		}
		return d
	}
	diff := Diff(build(false), build(true))
	if !diff.OrderChanged || !diff.Structural() {
		t.Fatalf("order change classified %s", diff.Class())
	}
}
