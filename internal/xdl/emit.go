// Package xdl implements the ASCII physical-design exchange format the JPG
// flow revolves around (the paper's §3.2.2): the Xilinx XDL utility converts
// the binary NCD database to this text form, and JPG parses it to replay a
// design's placement, configuration and routing through JBits calls.
//
// Grammar (one statement per ';'):
//
//	design "<name>" <part> ;
//	inst "<name>" "<LUT4|DFF>", placed CLB_R<r>C<c>.S<s>.<F|G>, cfg "<k::v ...>" ;
//	port "<name>" <in|out> <pad> ;
//	net "<name>" [, cfg "CLOCK GLOBAL::<g>"] , outpin "<inst>" <pin> |
//	    outport "<port>" {, inpin "<inst>" <pin>} {, inport "<port>"}
//	    {, pip R<r>C<c> <srcnode> -> <dstnode>} ;
//
// Pin names are physical, as in the real XDL: LUT inputs F1..F4/G1..G4,
// LUT outputs X/Y, flip-flop outputs XQ/YQ, flip-flop data BX/BY, controls
// CLK/CE/SR. Rows and columns are 1-based in the text. A pip names a wire of
// its own tile tile-relative ("E2") and any other node in full
// (device.Part.NodeName), and it must follow the design statement, which
// names the part its wires resolve on.
package xdl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/device"
	"repro/internal/netlist"
	"repro/internal/phys"
)

// Emit renders a physical design as XDL text: cells, ports and driven nets
// in name order, each net's pins and PIPs in the design's order. It refuses
// a name Load could not read back (see checkName).
func Emit(d *phys.Design) (string, error) {
	nl := d.Netlist
	if err := checkName("design", nl.Name); err != nil {
		return "", fmt.Errorf("xdl: %w", err)
	}
	b := make([]byte, 0, 256+64*(len(nl.Cells)+len(nl.Ports)+len(nl.Nets))+32*d.RoutedPIPCount())
	b = strconv.AppendQuote(append(b, "# XDL generated from design "...), nl.Name)
	b = appendQuoted(append(b, "\ndesign "...), nl.Name)
	b = append(append(append(b, ' '), d.Part.Name...), " ;\n\n"...)

	for _, c := range nl.SortedCells() {
		site, ok := d.Cells[c]
		if !ok {
			return "", fmt.Errorf("phys: cell %q unplaced", c.Name)
		}
		if err := checkName("cell", c.Name); err != nil {
			return "", fmt.Errorf("xdl: %w", err)
		}
		b = appendQuoted(append(b, "inst "...), c.Name)
		b = appendQuoted(append(b, ' '), c.Kind.String())
		b = device.AppendTileName(append(b, ", placed CLB_"...), site.Row, site.Col)
		b = strconv.AppendInt(append(b, ".S"...), int64(site.Slice), 10)
		b = append(append(append(b, '.'), device.LUTName(site.LE)...), `, cfg "INIT::`...)
		b = append(appendHex4(b, c.Init), "\" ;\n"...)
	}
	b = append(b, '\n')

	ports := append([]*netlist.Port(nil), nl.Ports...)
	sort.Slice(ports, func(i, j int) bool { return ports[i].Name < ports[j].Name })
	for _, p := range ports {
		pad, ok := d.Ports[p]
		if !ok {
			return "", fmt.Errorf("phys: port %q unassigned", p.Name)
		}
		if err := checkName("port", p.Name); err != nil {
			return "", fmt.Errorf("xdl: %w", err)
		}
		b = appendQuoted(append(b, "port "...), p.Name)
		b = append(append(append(append(append(b, ' '), p.Dir.String()...), ' '), pad.Name()...), " ;\n"...)
	}
	b = append(b, '\n')

	for _, n := range nl.SortedNets() {
		if !n.Driven() {
			continue
		}
		if err := checkName("net", n.Name); err != nil {
			return "", fmt.Errorf("xdl: %w", err)
		}
		b = appendQuoted(append(b, "net "...), n.Name)
		r := d.Routes[n]
		if n.IsClock {
			global := -1
			if r != nil {
				global = r.Global
			}
			b = strconv.AppendInt(append(b, " ,\n  cfg \"CLOCK GLOBAL::"...), int64(global), 10)
			b = append(b, '"')
		}
		var err error
		if n.Driver.Cell != nil {
			b = appendQuoted(append(b, " ,\n  outpin "...), n.Driver.Cell.Name)
			if b, err = appendPhysicalPin(append(b, ' '), d, n.Driver); err != nil {
				return "", err
			}
		} else {
			b = appendQuoted(append(b, " ,\n  outport "...), n.DriverPort.Name)
		}
		for _, s := range n.Sinks {
			b = appendQuoted(append(b, " ,\n  inpin "...), s.Cell.Name)
			if b, err = appendPhysicalPin(append(b, ' '), d, s); err != nil {
				return "", err
			}
		}
		for _, sp := range n.SinkPorts {
			b = appendQuoted(append(b, " ,\n  inport "...), sp.Name)
		}
		if r != nil {
			for _, pip := range r.PIPs {
				b = device.AppendTileName(append(b, " ,\n  pip "...), pip.Row, pip.Col)
				b = d.Part.AppendNodeName(append(b, ' '), pip.Src, pip.Row, pip.Col)
				b = d.Part.AppendNodeName(append(b, " -> "...), pip.Dst, pip.Row, pip.Col)
			}
		}
		b = append(b, " ;\n"...)
	}
	return string(b), nil
}

// nameDelims are what a quoted name must not hold for Load to read it back:
// a quote ends the name, ';' the statement, and a newline could start a
// comment line.
const nameDelims = "\";\n"

// checkName refuses a name Load could not read back: an empty one, or one
// holding one of nameDelims. Load refuses the same names, so every design
// it returns can be emitted.
func checkName(what, name string) error {
	if name == "" || strings.ContainsAny(name, nameDelims) {
		return fmt.Errorf("%s name %q not serialisable (empty, or holds one of %q)", what, name, nameDelims)
	}
	return nil
}

func appendQuoted(b []byte, s string) []byte {
	return append(append(append(b, '"'), s...), '"')
}

// appendHex4 appends v as four upper-case hex digits.
func appendHex4(b []byte, v uint16) []byte {
	const digits = "0123456789ABCDEF"
	return append(b, digits[v>>12], digits[v>>8&0xF], digits[v>>4&0xF], digits[v&0xF])
}

// appendPhysicalPin appends the physical name of a cell pin, which depends
// on the cell kind and (for LUT pins) the site's LE letter.
func appendPhysicalPin(b []byte, d *phys.Design, p netlist.PinRef) ([]byte, error) {
	site, ok := d.Cells[p.Cell]
	if !ok {
		return nil, fmt.Errorf("xdl: pin on unknown inst %q", p.Cell.Name)
	}
	lef := site.LE == phys.LEF
	pick := func(f, g string) []byte {
		if lef {
			return append(b, f...)
		}
		return append(b, g...)
	}
	switch p.Cell.Kind {
	case netlist.KindLUT4:
		switch {
		case p.Pin == "O":
			return pick("X", "Y"), nil
		case len(p.Pin) == 2 && p.Pin[0] == 'I':
			return utf8.AppendRune(pick("F", "G"), rune(p.Pin[1]+1)), nil
		}
	case netlist.KindDFF:
		switch p.Pin {
		case "Q":
			return pick("XQ", "YQ"), nil
		case "D":
			return pick("BX", "BY"), nil
		case "C":
			return append(b, "CLK"...), nil
		case "CE":
			return append(b, "CE"...), nil
		case "R":
			return append(b, "SR"...), nil
		}
	}
	return nil, fmt.Errorf("xdl: no physical pin for %s.%s (%s)", p.Cell.Name, p.Pin, p.Cell.Kind)
}

// logicalPin is the inverse of appendPhysicalPin.
func logicalPin(kind netlist.CellKind, pin string) (string, error) {
	switch kind {
	case netlist.KindLUT4:
		switch pin {
		case "X", "Y":
			return "O", nil
		}
		if len(pin) == 2 && (pin[0] == 'F' || pin[0] == 'G') && pin[1] >= '1' && pin[1] <= '4' {
			return lutInputs[pin[1]-'1'], nil
		}
	case netlist.KindDFF:
		switch pin {
		case "XQ", "YQ":
			return "Q", nil
		case "BX", "BY":
			return "D", nil
		case "CLK":
			return "C", nil
		case "CE":
			return "CE", nil
		case "SR":
			return "R", nil
		}
	}
	return "", fmt.Errorf("xdl: unknown physical pin %q on %s", pin, kind)
}

var lutInputs = [4]string{"I0", "I1", "I2", "I3"}
