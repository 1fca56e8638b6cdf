package phys

import (
	"fmt"
	"sort"

	"repro/internal/device"
	"repro/internal/netlist"
)

// Flat is the serialisable form of a physical design: everything the XDL
// text format and the NCD binary database carry. All references are by name,
// routing nodes by their canonical node names, so a Flat is self-contained
// and part-portable in the way the real file formats are.
type Flat struct {
	Design string
	Part   string
	Cells  []FlatCell
	Ports  []FlatPort
	Nets   []FlatNet
}

// FlatCell is one placed cell.
type FlatCell struct {
	Name string
	Kind string // "LUT4" or "DFF"
	Init uint16
	Site Site
}

// FlatPort is one pad-bound port.
type FlatPort struct {
	Name string
	Dir  string // "in" or "out"
	Pad  string
}

// FlatPin is a cell pin reference by name.
type FlatPin struct {
	Inst string
	Pin  string // logical: I0..I3, O for LUTs; D,C,CE,R,Q for DFFs
}

// FlatPIP is one routing PIP, anchored at its owning tile with node names.
type FlatPIP struct {
	Row, Col int    // 0-based owning tile
	Src, Dst string // canonical node names
}

// FlatNet is one net with its connectivity and routing.
type FlatNet struct {
	Name string
	// Driver is the driving cell pin; empty Inst means DriverPort drives.
	Driver     FlatPin
	DriverPort string
	Sinks      []FlatPin
	SinkPorts  []string
	IsClock    bool
	Global     int // global line for routed clock nets, -1 otherwise
	PIPs       []FlatPIP
}

// Flatten converts a physical design to its serialisable form
// (deterministically ordered).
func (d *Design) Flatten() (*Flat, error) {
	f := &Flat{Design: d.Netlist.Name, Part: d.Part.Name}
	for _, c := range d.Netlist.SortedCells() {
		site, ok := d.Cells[c]
		if !ok {
			return nil, fmt.Errorf("phys: cell %q unplaced", c.Name)
		}
		f.Cells = append(f.Cells, FlatCell{Name: c.Name, Kind: c.Kind.String(), Init: c.Init, Site: site})
	}
	ports := append([]*netlist.Port(nil), d.Netlist.Ports...)
	sort.Slice(ports, func(i, j int) bool { return ports[i].Name < ports[j].Name })
	for _, p := range ports {
		pad, ok := d.Ports[p]
		if !ok {
			return nil, fmt.Errorf("phys: port %q unassigned", p.Name)
		}
		f.Ports = append(f.Ports, FlatPort{Name: p.Name, Dir: p.Dir.String(), Pad: pad.Name()})
	}
	for _, n := range d.Netlist.SortedNets() {
		if !n.Driven() {
			continue
		}
		fn := FlatNet{Name: n.Name, IsClock: n.IsClock, Global: -1}
		if n.Driver.Cell != nil {
			fn.Driver = FlatPin{Inst: n.Driver.Cell.Name, Pin: n.Driver.Pin}
		} else {
			fn.DriverPort = n.DriverPort.Name
		}
		for _, s := range n.Sinks {
			fn.Sinks = append(fn.Sinks, FlatPin{Inst: s.Cell.Name, Pin: s.Pin})
		}
		for _, sp := range n.SinkPorts {
			fn.SinkPorts = append(fn.SinkPorts, sp.Name)
		}
		if r := d.Routes[n]; r != nil {
			fn.Global = r.Global
			for _, pip := range r.PIPs {
				fn.PIPs = append(fn.PIPs, FlatPIP{
					Row: pip.Row, Col: pip.Col,
					Src: d.Part.NodeName(pip.Src),
					Dst: d.Part.NodeName(pip.Dst),
				})
			}
		}
		f.Nets = append(f.Nets, fn)
	}
	return f, nil
}

// Unflatten reconstructs a physical design from its serialised form: it
// builds the netlist (cells, nets, ports and their connectivity) and
// validates it, then binds placement and routing onto it with Bind, the
// one place sites, pads and PIPs are resolved and checked.
func Unflatten(f *Flat) (*Design, error) {
	part, err := device.ByName(f.Part)
	if err != nil {
		return nil, err
	}
	nl := netlist.NewDesign(f.Design)

	for _, fc := range f.Cells {
		var kind netlist.CellKind
		switch fc.Kind {
		case "LUT4":
			kind = netlist.KindLUT4
		case "DFF":
			kind = netlist.KindDFF
		default:
			return nil, fmt.Errorf("phys: cell %q has unknown kind %q", fc.Name, fc.Kind)
		}
		if _, err := nl.NewRawCell(fc.Name, kind, fc.Init); err != nil {
			return nil, err
		}
	}

	netByName := map[string]*netlist.Net{}
	for _, fn := range f.Nets {
		n := nl.NewNet(fn.Name)
		if n.Name != fn.Name {
			return nil, fmt.Errorf("phys: duplicate net %q", fn.Name)
		}
		n.IsClock = fn.IsClock
		netByName[fn.Name] = n
	}

	// Ports: input ports drive their nets, so bind them before cell pins.
	for _, fp := range f.Ports {
		var dir netlist.PortDir
		switch fp.Dir {
		case "in":
			dir = netlist.In
		case "out":
			dir = netlist.Out
		default:
			return nil, fmt.Errorf("phys: port %q has bad direction %q", fp.Name, fp.Dir)
		}
		// The port's net is found from the net records; ports with no net
		// record are dangling.
		var net *netlist.Net
		for _, fn := range f.Nets {
			if (dir == netlist.In && fn.DriverPort == fp.Name) || (dir == netlist.Out && containsStr(fn.SinkPorts, fp.Name)) {
				net = netByName[fn.Name]
				break
			}
		}
		if net == nil {
			return nil, fmt.Errorf("phys: port %q not referenced by any net", fp.Name)
		}
		if _, err := nl.AddPort(fp.Name, dir, net); err != nil {
			return nil, err
		}
	}

	for _, fn := range f.Nets {
		n := netByName[fn.Name]
		if fn.Driver.Inst != "" {
			c, ok := nl.Cell(fn.Driver.Inst)
			if !ok {
				return nil, fmt.Errorf("phys: net %q driven by unknown cell %q", fn.Name, fn.Driver.Inst)
			}
			if err := nl.BindOutput(c, n); err != nil {
				return nil, err
			}
		}
		for _, s := range fn.Sinks {
			c, ok := nl.Cell(s.Inst)
			if !ok {
				return nil, fmt.Errorf("phys: net %q sinks unknown cell %q", fn.Name, s.Inst)
			}
			if err := nl.BindInput(c, s.Pin, n); err != nil {
				return nil, err
			}
		}
	}

	if err := nl.FinishRaw(); err != nil {
		return nil, err
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return Bind(f, part, nl)
}

func resolvePIP(part *device.Part, fp FlatPIP) (device.PIP, error) {
	src, err := part.ParseNode(fp.Src, fp.Row, fp.Col)
	if err != nil {
		return device.PIP{}, err
	}
	dst, err := part.ParseNode(fp.Dst, fp.Row, fp.Col)
	if err != nil {
		return device.PIP{}, err
	}
	pip, ok := device.NewGraph(part).FindPIP(fp.Row, fp.Col, src, dst)
	if !ok {
		return device.PIP{}, fmt.Errorf("no pip %s -> %s in tile %s", fp.Src, fp.Dst, device.TileName(fp.Row, fp.Col))
	}
	return pip, nil
}

func containsStr(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
