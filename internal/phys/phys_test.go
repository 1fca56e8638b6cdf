package phys

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/netlist"
)

func smallDesign(t *testing.T) (*Design, *netlist.Cell, *netlist.Cell) {
	t.Helper()
	p := device.MustByName("XCV50")
	nl := netlist.NewDesign("t")
	a, _ := nl.AddPort("a", netlist.In, nil)
	clk, _ := nl.AddPort("clk", netlist.In, nil)
	lut, err := nl.AddLUT("l", 0x5555, a.Net)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := nl.AddDFF("f", lut.Out, clk.Net, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nl.AddPort("q", netlist.Out, ff.Out); err != nil {
		t.Fatal(err)
	}
	return NewDesign(p, nl), lut, ff
}

func TestCheckPlacementCatchesConflicts(t *testing.T) {
	d, lut, ff := smallDesign(t)
	site := Site{Row: 1, Col: 1, Slice: 0, LE: LEF}
	d.Cells[lut] = site
	d.Cells[ff] = site
	assignPorts(d)
	if err := d.CheckPlacement(); err != nil {
		t.Fatalf("LUT+FF sharing a site is legal packing: %v", err)
	}

	// Two LUTs on one site must fail.
	lut2, err := d.Netlist.AddLUT("l2", 0xAAAA, d.Netlist.Ports[0].Net)
	if err != nil {
		t.Fatal(err)
	}
	d.Cells[lut2] = site
	if err := d.CheckPlacement(); err == nil {
		t.Fatal("two LUTs on one site accepted")
	}
	d.Cells[lut2] = Site{Row: 1, Col: 1, Slice: 0, LE: LEG}
	if err := d.CheckPlacement(); err != nil {
		t.Fatal(err)
	}

	// Invalid site.
	d.Cells[lut2] = Site{Row: 99, Col: 1, Slice: 0, LE: LEF}
	if err := d.CheckPlacement(); err == nil {
		t.Fatal("invalid site accepted")
	}
}

func assignPorts(d *Design) {
	for i, p := range d.Netlist.Ports {
		d.Ports[p] = device.Pad{Edge: device.EdgeL, Index: i}
	}
}

func TestCheckPlacementCatchesSharedPads(t *testing.T) {
	d, lut, ff := smallDesign(t)
	d.Cells[lut] = Site{Row: 1, Col: 1, Slice: 0, LE: LEF}
	d.Cells[ff] = Site{Row: 1, Col: 1, Slice: 0, LE: LEF}
	for _, p := range d.Netlist.Ports {
		d.Ports[p] = device.Pad{Edge: device.EdgeL, Index: 0}
	}
	if err := d.CheckPlacement(); err == nil {
		t.Fatal("shared pad accepted")
	}
}

func TestPinNodesAndInternalPairing(t *testing.T) {
	d, lut, ff := smallDesign(t)
	site := Site{Row: 2, Col: 3, Slice: 1, LE: LEG}
	d.Cells[lut] = site
	d.Cells[ff] = site
	assignPorts(d)

	// LUT input I0 is the G1 pin of slice 1.
	node, internal, err := d.PinNode(netlist.PinRef{Cell: lut, Pin: "I0"})
	if err != nil || internal {
		t.Fatalf("I0: %v internal=%v", err, internal)
	}
	want := d.Part.TileWireNode(2, 3, device.InPinWire(1, device.PinG1))
	if node != want {
		t.Fatalf("I0 node %s, want %s", d.Part.NodeName(node), d.Part.NodeName(want))
	}
	// FF D is internal (paired LUT in the same LE).
	_, internal, err = d.PinNode(netlist.PinRef{Cell: ff, Pin: "D"})
	if err != nil || !internal {
		t.Fatalf("paired D should be internal: %v internal=%v", err, internal)
	}
	// Moving the FF away makes D external (BY pin).
	d.Cells[ff] = Site{Row: 2, Col: 4, Slice: 0, LE: LEG}
	node, internal, err = d.PinNode(netlist.PinRef{Cell: ff, Pin: "D"})
	if err != nil || internal {
		t.Fatalf("unpaired D should need routing: %v internal=%v", err, internal)
	}
	if node != d.Part.TileWireNode(2, 4, device.InPinWire(0, device.PinBY)) {
		t.Fatalf("unpaired D on wrong pin: %s", d.Part.NodeName(node))
	}
	// Output nodes.
	out, err := d.OutputNode(lut)
	if err != nil || out != d.Part.TileWireNode(2, 3, device.OutWire(1, device.OutY)) {
		t.Fatalf("LUT output node wrong: %v", err)
	}
	out, err = d.OutputNode(ff)
	if err != nil || out != d.Part.TileWireNode(2, 4, device.OutWire(0, device.OutYQ)) {
		t.Fatalf("FF output node wrong: %v", err)
	}
}

func TestSinkNodesDedupAndPorts(t *testing.T) {
	d, lut, ff := smallDesign(t)
	site := Site{Row: 2, Col: 3, Slice: 1, LE: LEG}
	d.Cells[lut] = site
	d.Cells[ff] = site
	assignPorts(d)
	// The LUT output net: its only sink (FF D) is internal -> no sinks.
	sinks, err := d.SinkNodes(lut.Out)
	if err != nil || len(sinks) != 0 {
		t.Fatalf("paired net should have no routable sinks: %v %v", sinks, err)
	}
	// The FF output net reaches the q port's pad.
	sinks, err = d.SinkNodes(ff.Out)
	if err != nil || len(sinks) != 1 {
		t.Fatalf("q net sinks: %v %v", sinks, err)
	}
	// Source nodes.
	if _, err := d.SourceNode(ff.Out); err != nil {
		t.Fatal(err)
	}
	aPort, _ := d.Netlist.Port("a")
	if src, err := d.SourceNode(aPort.Net); err != nil || src != d.Part.PadNodeI(d.Ports[aPort]) {
		t.Fatalf("port-driven net source wrong: %v", err)
	}
}

// TestSinkNodesSharedClockPin: flip-flops that share a slice share its
// clock pin, so a clock net lists each slice's pin once, in the order its
// first flip-flop appears. Each call returns a new slice, and a call that
// fails part-way leaves no node marked for the next.
func TestSinkNodesSharedClockPin(t *testing.T) {
	p := device.MustByName("XCV50")
	nl := netlist.NewDesign("t")
	a, _ := nl.AddPort("a", netlist.In, nil)
	clk, _ := nl.AddPort("clk", netlist.In, nil)
	d := NewDesign(p, nl)
	var want []device.NodeID
	for i := 0; i < 40; i++ {
		ff, err := nl.AddDFF(fmt.Sprintf("f%d", i), a.Net, clk.Net, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Each pair of flip-flops shares a slice: two slices a tile, in the
		// last two columns.
		site := Site{Row: i / 8, Col: p.Cols - 1 - i/4%2, Slice: i / 2 % 2, LE: i % 2}
		d.Cells[ff] = site
		if site.LE == LEF {
			want = append(want, p.TileWireNode(site.Row, site.Col, device.InPinWire(site.Slice, device.PinCLK)))
		}
	}
	q, err := nl.AddPort("q", netlist.Out, clk.Net)
	if err != nil {
		t.Fatal(err)
	}
	assignPorts(d)
	want = append(want, p.PadNodeO(d.Ports[q]))

	got, err := d.SinkNodes(clk.Net)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("clock sinks %v (%v), want %v", got, err, want)
	}
	got[0]++
	pad := d.Ports[q]
	delete(d.Ports, q)
	if _, err := d.SinkNodes(clk.Net); err == nil {
		t.Fatal("unassigned sink port accepted")
	}
	d.Ports[q] = pad
	if again, err := d.SinkNodes(clk.Net); err != nil || !slices.Equal(again, want) {
		t.Fatalf("second call: clock sinks %v (%v), want %v", again, err, want)
	}
}

func TestSiteValidity(t *testing.T) {
	p := device.MustByName("XCV50")
	good := Site{Row: 0, Col: 0, Slice: 1, LE: LEG}
	if !good.Valid(p) {
		t.Fatal("valid site rejected")
	}
	for _, bad := range []Site{
		{Row: -1}, {Row: p.Rows}, {Col: p.Cols}, {Slice: 2}, {LE: 3},
	} {
		if bad.Valid(p) {
			t.Errorf("invalid site %v accepted", bad)
		}
	}
}

func TestBoundingBox(t *testing.T) {
	d, lut, ff := smallDesign(t)
	if _, _, _, _, ok := d.BoundingBox(); ok {
		t.Fatal("empty design has a bounding box")
	}
	d.Cells[lut] = Site{Row: 2, Col: 7, Slice: 0, LE: LEF}
	d.Cells[ff] = Site{Row: 5, Col: 3, Slice: 0, LE: LEF}
	r1, c1, r2, c2, ok := d.BoundingBox()
	if !ok || r1 != 2 || c1 != 3 || r2 != 5 || c2 != 7 {
		t.Fatalf("bbox (%d,%d)-(%d,%d)", r1, c1, r2, c2)
	}
}

func TestUtilization(t *testing.T) {
	d, lut, ff := smallDesign(t)
	d.Cells[lut] = Site{Row: 1, Col: 1, Slice: 0, LE: LEF}
	d.Cells[ff] = Site{Row: 1, Col: 1, Slice: 0, LE: LEF}
	assignPorts(d)
	u := d.Utilization()
	if u.LUTs != 1 || u.FFs != 1 || u.Pads != 3 {
		t.Fatalf("utilization = %+v", u)
	}
	if u.LUTCap != d.Part.NumLUTs() || u.PadCap != d.Part.NumPads() {
		t.Fatalf("capacities wrong: %+v", u)
	}
	s := u.String()
	if !strings.Contains(s, "LUTs 1/") || !strings.Contains(s, "pads 3/") {
		t.Fatalf("report: %s", s)
	}
}
