// Package phys represents physical (placed and routed) designs: the
// information a Xilinx NCD database holds. It binds netlist cells to device
// sites, ports to pads, and nets to routing trees of PIPs, and knows how to
// translate cell pins into routing-graph nodes. The placer fills in the
// placement, the router the routes; XDL/NCD serialise it and bitgen turns it
// into configuration frames.
package phys

import (
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/netlist"
)

// LE identifies a logic element (half-slice) within a CLB: the F/X path or
// the G/Y path.
const (
	LEF = 0 // F LUT + X flip-flop
	LEG = 1 // G LUT + Y flip-flop
)

// Site is one logic-element site: a (tile, slice, LE) triple.
type Site struct {
	Row, Col, Slice, LE int
}

func (s Site) String() string {
	return fmt.Sprintf("%s.S%d.%s", device.TileName(s.Row, s.Col), s.Slice, device.LUTName(s.LE))
}

// Valid reports whether the site exists on the part.
func (s Site) Valid(p *device.Part) bool {
	return s.Row >= 0 && s.Row < p.Rows && s.Col >= 0 && s.Col < p.Cols &&
		s.Slice >= 0 && s.Slice <= 1 && (s.LE == LEF || s.LE == LEG)
}

// Route is the realised routing of one net: a tree of PIPs from the net's
// source node to every sink node. Clock nets instead record the global line
// carrying them plus the input-pin PIPs tapping it.
type Route struct {
	Net  *netlist.Net
	PIPs []device.PIP
	// Global is the global line index for clock nets, -1 for fabric nets.
	Global int
}

// Design is a physical design under construction or completed.
type Design struct {
	Part    *device.Part
	Netlist *netlist.Design

	// Cells maps every placeable cell to its site. Paired LUT+FF cells
	// share a site.
	Cells map[*netlist.Cell]Site
	// Ports maps top-level ports to pads.
	Ports map[*netlist.Port]device.Pad
	// Routes maps routed nets to their routing trees.
	Routes map[*netlist.Net]*Route
}

// NewDesign returns an empty physical design for the netlist on the part.
func NewDesign(p *device.Part, nl *netlist.Design) *Design {
	return &Design{
		Part:    p,
		Netlist: nl,
		Cells:   map[*netlist.Cell]Site{},
		Ports:   map[*netlist.Port]device.Pad{},
		Routes:  map[*netlist.Net]*Route{},
	}
}

// lutInputPin returns the slice input-pin index (device.PinF1 etc.) for LUT
// input k at an LE.
func lutInputPin(le, k int) int {
	if le == LEF {
		return device.PinF1 + k
	}
	return device.PinG1 + k
}

// OutputNode returns the routing node a placed cell drives.
func (d *Design) OutputNode(c *netlist.Cell) (device.NodeID, error) {
	site, ok := d.Cells[c]
	if !ok {
		return 0, fmt.Errorf("phys: cell %q unplaced", c.Name)
	}
	switch c.Kind {
	case netlist.KindLUT4:
		pin := device.OutX
		if site.LE == LEG {
			pin = device.OutY
		}
		return d.Part.TileWireNode(site.Row, site.Col, device.OutWire(site.Slice, pin)), nil
	case netlist.KindDFF:
		pin := device.OutXQ
		if site.LE == LEG {
			pin = device.OutYQ
		}
		return d.Part.TileWireNode(site.Row, site.Col, device.OutWire(site.Slice, pin)), nil
	}
	return 0, fmt.Errorf("phys: cell %q has unknown kind", c.Name)
}

// PinNode returns the routing node feeding a cell input pin, and whether the
// connection is internal to the slice (a LUT output feeding its paired FF
// needs no routing).
func (d *Design) PinNode(pr netlist.PinRef) (node device.NodeID, internal bool, err error) {
	c := pr.Cell
	site, ok := d.Cells[c]
	if !ok {
		return 0, false, fmt.Errorf("phys: cell %q unplaced", c.Name)
	}
	tile := func(w int) device.NodeID { return d.Part.TileWireNode(site.Row, site.Col, w) }
	switch {
	case c.Kind == netlist.KindLUT4 && len(pr.Pin) == 2 && pr.Pin[0] == 'I':
		k := int(pr.Pin[1] - '0')
		if k < 0 || k >= len(c.Inputs) {
			return 0, false, fmt.Errorf("phys: %s: no such input", pr)
		}
		return tile(device.InPinWire(site.Slice, lutInputPin(site.LE, k))), false, nil

	case c.Kind == netlist.KindDFF && pr.Pin == "D":
		// Internal if the driving LUT sits in the same LE.
		if drv := c.Inputs[0].Driver.Cell; drv != nil && drv.Kind == netlist.KindLUT4 {
			if dsite, placed := d.Cells[drv]; placed && dsite == site {
				return 0, true, nil
			}
		}
		pin := device.PinBX
		if site.LE == LEG {
			pin = device.PinBY
		}
		return tile(device.InPinWire(site.Slice, pin)), false, nil

	case c.Kind == netlist.KindDFF && pr.Pin == "C":
		return tile(device.InPinWire(site.Slice, device.PinCLK)), false, nil
	case c.Kind == netlist.KindDFF && pr.Pin == "CE":
		return tile(device.InPinWire(site.Slice, device.PinCE)), false, nil
	case c.Kind == netlist.KindDFF && pr.Pin == "R":
		return tile(device.InPinWire(site.Slice, device.PinSR)), false, nil
	}
	return 0, false, fmt.Errorf("phys: %s: unknown pin", pr)
}

// SourceNode returns the routing node driving a net (cell output or pad).
func (d *Design) SourceNode(n *netlist.Net) (device.NodeID, error) {
	switch {
	case n.Driver.Cell != nil:
		return d.OutputNode(n.Driver.Cell)
	case n.DriverPort != nil:
		pad, ok := d.Ports[n.DriverPort]
		if !ok {
			return 0, fmt.Errorf("phys: port %q unassigned", n.DriverPort.Name)
		}
		return d.Part.PadNodeI(pad), nil
	}
	return 0, fmt.Errorf("phys: net %q undriven", n.Name)
}

// SinkNodes returns the distinct routing nodes a net must reach (cell input
// pins that are not slice-internal, plus output pads), in the order the net
// lists them. The slice is new, so the caller may keep it.
func (d *Design) SinkNodes(n *netlist.Net) ([]device.NodeID, error) {
	return d.appendSinkNodes(make([]device.NodeID, 0, len(n.Sinks)+len(n.SinkPorts)), n)
}

// appendSinkNodes appends SinkNodes(n) to dst. It dedupes them in one pass
// over a pooled bitset of the part's nodes, and clears the bits it set
// before it puts the set back.
func (d *Design) appendSinkNodes(dst []device.NodeID, n *netlist.Net) ([]device.NodeID, error) {
	pooled := getNodeSet(d.Part.NumNodes())
	seen, start := *pooled, len(dst)
	defer func() {
		for _, node := range dst[start:] {
			seen[node>>6] &^= 1 << (node & 63)
		}
		nodeSetPool.Put(pooled)
	}()
	add := func(node device.NodeID) {
		if seen[node>>6]>>(node&63)&1 == 0 {
			seen[node>>6] |= 1 << (node & 63)
			dst = append(dst, node)
		}
	}
	for _, pr := range n.Sinks {
		node, internal, err := d.PinNode(pr)
		if err != nil {
			return nil, err
		}
		if !internal {
			add(node)
		}
	}
	for _, p := range n.SinkPorts {
		pad, ok := d.Ports[p]
		if !ok {
			return nil, fmt.Errorf("phys: port %q unassigned", p.Name)
		}
		add(d.Part.PadNodeO(pad))
	}
	return dst, nil
}

// nodeSet is a bitset over a part's routing nodes.
type nodeSet []uint64

// nodeSetPool holds all-clear node sets, each sized to one part.
var nodeSetPool sync.Pool

func getNodeSet(nodes int) *nodeSet {
	words := (nodes + 63) / 64
	if s, _ := nodeSetPool.Get().(*nodeSet); s != nil && len(*s) == words {
		return s
	}
	s := make(nodeSet, words)
	return &s
}

// CheckPlacement verifies structural placement invariants: every cell
// placed on a valid site, at most one LUT and one FF per site, paired cells
// colocated legally, every port on a distinct valid pad.
func (d *Design) CheckPlacement() error {
	type occKey struct {
		site Site
		kind netlist.CellKind
	}
	occ := map[occKey]*netlist.Cell{}
	for _, c := range d.Netlist.Cells {
		site, ok := d.Cells[c]
		if !ok {
			return fmt.Errorf("phys: cell %q unplaced", c.Name)
		}
		if !site.Valid(d.Part) {
			return fmt.Errorf("phys: cell %q on invalid site %v", c.Name, site)
		}
		k := occKey{site, c.Kind}
		if prev := occ[k]; prev != nil {
			return fmt.Errorf("phys: cells %q and %q share site %v", prev.Name, c.Name, site)
		}
		occ[k] = c
	}
	padUsed := map[device.Pad]*netlist.Port{}
	for _, p := range d.Netlist.Ports {
		pad, ok := d.Ports[p]
		if !ok {
			return fmt.Errorf("phys: port %q unassigned", p.Name)
		}
		if !d.Part.ValidPad(pad) {
			return fmt.Errorf("phys: port %q on invalid pad %v", p.Name, pad)
		}
		if prev := padUsed[pad]; prev != nil {
			return fmt.Errorf("phys: ports %q and %q share pad %s", prev.Name, p.Name, pad.Name())
		}
		padUsed[pad] = p
	}
	return nil
}

// RoutedPIPCount returns the total PIPs across all routes.
func (d *Design) RoutedPIPCount() int {
	n := 0
	for _, r := range d.Routes {
		n += len(r.PIPs)
	}
	return n
}

// BoundingBox returns the smallest region containing every placed cell.
func (d *Design) BoundingBox() (r1, c1, r2, c2 int, ok bool) {
	first := true
	for _, site := range d.Cells {
		if first {
			r1, c1, r2, c2 = site.Row, site.Col, site.Row, site.Col
			first = false
			continue
		}
		r1, c1 = min(r1, site.Row), min(c1, site.Col)
		r2, c2 = max(r2, site.Row), max(c2, site.Col)
	}
	return r1, c1, r2, c2, !first
}

// Utilization summarises device resource usage of a placed design, the
// report MAP prints in the Xilinx flow.
type Utilization struct {
	LUTs, LUTCap int
	FFs, FFCap   int
	Pads, PadCap int
	PIPs         int
}

// Utilization computes resource usage (PIPs require routes).
func (d *Design) Utilization() Utilization {
	u := Utilization{
		LUTCap: d.Part.NumLUTs(),
		FFCap:  d.Part.NumLUTs(), // one FF per LE
		PadCap: d.Part.NumPads(),
		Pads:   len(d.Ports),
		PIPs:   d.RoutedPIPCount(),
	}
	for _, c := range d.Netlist.Cells {
		switch c.Kind {
		case netlist.KindLUT4:
			u.LUTs++
		case netlist.KindDFF:
			u.FFs++
		}
	}
	return u
}

func (u Utilization) String() string {
	pct := func(n, cap int) float64 {
		if cap == 0 {
			return 0
		}
		return 100 * float64(n) / float64(cap)
	}
	return fmt.Sprintf("LUTs %d/%d (%.1f%%), FFs %d/%d (%.1f%%), pads %d/%d (%.1f%%), %d routed PIPs",
		u.LUTs, u.LUTCap, pct(u.LUTs, u.LUTCap),
		u.FFs, u.FFCap, pct(u.FFs, u.FFCap),
		u.Pads, u.PadCap, pct(u.Pads, u.PadCap), u.PIPs)
}
