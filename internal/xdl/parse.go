package xdl

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/device"
	"repro/internal/netlist"
	"repro/internal/phys"
)

// Load reads XDL text into a physical design in one pass: statements and
// tokens are scanned in place, each pip's wires resolve straight to routing
// nodes, and the netlist and placement are built as statements arrive.
//
// Every ';' ends a statement, also inside quotes, and a line whose trimmed
// form starts with '#' is a comment wherever it falls. White space and
// commas separate tokens; a quoted token loses its quotes (an unterminated
// one runs to the end of its statement), and "->" is a token. An inst
// precedes the nets that pin it, and the one design statement precedes the
// first pip; other statements come in any order. Names Emit would refuse
// are refused. An error names its statement, counting those that hold more
// than white space; a fault only the whole design shows (a dangling port,
// an unbound LUT, a shared site) is reported after the scan.
func Load(text string) (*phys.Design, error) {
	nl := netlist.NewDesign("")
	l := &loader{nl: nl, d: phys.NewDesign(nil, nl), toks: make([]string, 0, 64)}
	text = uncomment(text)
	for n := 0; text != ""; {
		var stmt string
		stmt, text, _ = strings.Cut(text, ";")
		if strings.TrimSpace(stmt) == "" {
			continue
		}
		n++
		if l.toks = appendTokens(l.toks[:0], stmt); len(l.toks) == 0 {
			continue
		}
		var err error
		switch l.toks[0] {
		case "design":
			err = l.design(l.toks)
		case "inst":
			err = l.inst(l.toks)
		case "port":
			err = l.port(l.toks)
		case "net":
			err = l.net(l.toks)
		default:
			err = fmt.Errorf("unknown statement %q", l.toks[0])
		}
		if err != nil {
			return nil, fmt.Errorf("xdl: statement %d: %w", n, err)
		}
	}
	return l.finish()
}

// uncomment returns what the statements are cut from: the text with its
// comment lines dropped and every kept line ended by '\n'. Past leading
// comment and blank lines, that is the text itself, uncopied, unless a
// comment line follows or the text does not end with ';' (the final '\n'
// is then part of the last statement, and an unterminated quote keeps it).
func uncomment(text string) string {
	for {
		line, rest, ok := strings.Cut(text, "\n")
		if !isComment(line) && strings.Trim(line, " \t\r") != "" {
			break
		}
		if !ok {
			return ""
		}
		text = rest
	}
	inPlace := strings.HasSuffix(strings.TrimRight(text, " \t\r\n"), ";")
	for rest, ok := text, true; inPlace; {
		if _, rest, ok = strings.Cut(rest, "\n"); !ok {
			return text
		}
		line, _, _ := strings.Cut(rest, "\n")
		inPlace = !isComment(line)
	}
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if !isComment(line) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func isComment(line string) bool { return strings.HasPrefix(strings.TrimSpace(line), "#") }

// appendTokens appends the tokens of a statement to toks: quoted strings
// become single tokens (quotes stripped), commas are separators, "->" is
// kept.
func appendTokens(toks []string, s string) []string {
	for {
		i := 0
		for i < len(s) && isSep(s[i]) {
			i++
		}
		if s = s[i:]; s == "" {
			return toks
		}
		if s[0] == '"' {
			end := strings.IndexByte(s[1:], '"')
			if end < 0 {
				return append(toks, s[1:])
			}
			toks = append(toks, s[1:1+end])
			s = s[end+2:]
			continue
		}
		i = 1
		for i < len(s) && !isSep(s[i]) {
			i++
		}
		toks = append(toks, s[:i])
		s = s[i:]
	}
}

func isSep(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ',' }

// loader builds one design from the statements of an XDL text.
type loader struct {
	nl    *netlist.Design
	d     *phys.Design // Part is set by the design statement
	graph *device.Graph
	toks  []string     // the current statement's tokens
	pips  []device.PIP // the current net's PIPs
	ports []portStmt
	refs  []portRef
}

// portStmt is a port statement, bound once every net is known.
type portStmt struct {
	name string
	dir  netlist.PortDir
	pad  device.Pad
}

// portRef is an outport (drive) or inport token of a net statement.
type portRef struct {
	port  string
	net   *netlist.Net
	drive bool
}

func (l *loader) design(toks []string) error {
	if len(toks) != 3 {
		return fmt.Errorf("design statement wants name and part")
	}
	if l.d.Part != nil {
		return errors.New("second design statement")
	}
	if err := checkName("design", toks[1]); err != nil {
		return err
	}
	part, err := device.ByName(toks[2])
	if err != nil {
		return err
	}
	l.nl.Name, l.d.Part = toks[1], part
	return nil
}

// inst handles: inst "<name>" "<kind>" placed CLB_RrCc.Ss.L cfg "<cfg>"
func (l *loader) inst(toks []string) error {
	if len(toks) < 7 || toks[3] != "placed" || toks[5] != "cfg" {
		return fmt.Errorf("malformed inst statement %v", toks)
	}
	name := toks[1]
	site, err := parseSite(toks[4])
	if err != nil {
		return err
	}
	init, err := parseCfgInit(toks[6])
	if err != nil {
		return err
	}
	var kind netlist.CellKind
	switch toks[2] {
	case "LUT4":
		kind = netlist.KindLUT4
	case "DFF":
		kind = netlist.KindDFF
	default:
		return fmt.Errorf("cell %q has unknown kind %q", name, toks[2])
	}
	if err := checkName("cell", name); err != nil {
		return err
	}
	c, err := l.nl.NewRawCell(name, kind, init)
	if err != nil {
		return err
	}
	l.d.Cells[c] = site
	return nil
}

// parseSite parses "CLB_R3C23.S0.F".
func parseSite(s string) (phys.Site, error) {
	rest, ok := strings.CutPrefix(s, "CLB_")
	tile, rest, ok2 := strings.Cut(rest, ".")
	slice, le, ok3 := strings.Cut(rest, ".")
	if !ok || !ok2 || !ok3 || strings.Contains(le, ".") || len(slice) != 2 || slice[0] != 'S' {
		return phys.Site{}, fmt.Errorf("bad site %q", s)
	}
	r, c, err := device.ParseTileName(tile)
	if err != nil {
		return phys.Site{}, err
	}
	if slice[1] != '0' && slice[1] != '1' {
		return phys.Site{}, fmt.Errorf("bad slice in site %q", s)
	}
	site := phys.Site{Row: r, Col: c, Slice: int(slice[1] - '0')}
	switch le {
	case "F":
		site.LE = phys.LEF
	case "G":
		site.LE = phys.LEG
	default:
		return phys.Site{}, fmt.Errorf("bad LE in site %q", s)
	}
	return site, nil
}

// parseCfgInit extracts INIT::<hex> from an inst cfg string.
func parseCfgInit(cfg string) (uint16, error) {
	for _, kv := range strings.Fields(cfg) {
		if v, ok := strings.CutPrefix(kv, "INIT::"); ok {
			n, err := strconv.ParseUint(v, 16, 16)
			if err != nil {
				return 0, fmt.Errorf("bad INIT %q", v)
			}
			return uint16(n), nil
		}
	}
	return 0, fmt.Errorf("cfg %q missing INIT", cfg)
}

func (l *loader) port(toks []string) error {
	if len(toks) != 4 || (toks[2] != "in" && toks[2] != "out") {
		return fmt.Errorf("malformed port statement %v", toks)
	}
	if err := checkName("port", toks[1]); err != nil {
		return err
	}
	pad, err := device.ParsePad(toks[3])
	if err != nil {
		return fmt.Errorf("port %q: %w", toks[1], err)
	}
	dir := netlist.In
	if toks[2] == "out" {
		dir = netlist.Out
	}
	l.ports = append(l.ports, portStmt{name: toks[1], dir: dir, pad: pad})
	return nil
}

func (l *loader) net(toks []string) error {
	if len(toks) < 2 {
		return fmt.Errorf("net statement missing name")
	}
	name := toks[1]
	if err := checkName("net", name); err != nil {
		return err
	}
	if _, dup := l.nl.Net(name); dup {
		return fmt.Errorf("duplicate net %q", name)
	}
	n := l.nl.NewNet(name)
	global, drivePort := -1, ""
	l.pips = l.pips[:0]
	for i := 2; i < len(toks); {
		switch toks[i] {
		case "cfg":
			if i+1 >= len(toks) {
				return fmt.Errorf("net %q: dangling cfg", name)
			}
			for _, kv := range strings.Fields(toks[i+1]) {
				if kv == "CLOCK" {
					n.IsClock = true
				} else if v, ok := strings.CutPrefix(kv, "GLOBAL::"); ok {
					g, err := strconv.Atoi(v)
					if err != nil {
						return fmt.Errorf("net %q: bad GLOBAL %q", name, v)
					}
					global = g
				}
			}
			i += 2
		case "outpin", "inpin":
			if i+2 >= len(toks) {
				return fmt.Errorf("net %q: truncated %s", name, toks[i])
			}
			c, ok := l.nl.Cell(toks[i+1])
			if !ok {
				return fmt.Errorf("net %q: pin on undeclared inst %q", name, toks[i+1])
			}
			pin, err := logicalPin(c.Kind, toks[i+2])
			if err != nil {
				return fmt.Errorf("net %q: %w", name, err)
			}
			if toks[i] == "inpin" {
				err = l.nl.BindInput(c, pin, n)
			} else if n.Driver.Cell != nil || drivePort != "" {
				return fmt.Errorf("net %q: two drivers", name)
			} else {
				err = l.nl.BindOutput(c, n)
			}
			if err != nil {
				return err
			}
			i += 3
		case "outport", "inport":
			if i+1 >= len(toks) {
				return fmt.Errorf("net %q: truncated %s", name, toks[i])
			}
			ref := portRef{port: toks[i+1], net: n, drive: toks[i] == "outport"}
			if ref.drive && (n.Driver.Cell != nil || drivePort != "") {
				return fmt.Errorf("net %q: two drivers", name)
			} else if ref.drive {
				drivePort = ref.port
			}
			l.refs = append(l.refs, ref)
			i += 2
		case "pip":
			if i+4 >= len(toks) || toks[i+3] != "->" {
				return fmt.Errorf("net %q: malformed pip", name)
			}
			pip, err := l.pip(toks[i+1], toks[i+2], toks[i+4])
			if err != nil {
				return fmt.Errorf("net %q: %w", name, err)
			}
			l.pips = append(l.pips, pip)
			i += 5
		default:
			return fmt.Errorf("net %q: unexpected token %q", name, toks[i])
		}
	}
	if len(l.pips) > 0 || global >= 0 {
		l.d.Routes[n] = &phys.Route{Net: n, Global: global, PIPs: append([]device.PIP(nil), l.pips...)}
	}
	return nil
}

// pip resolves a pip statement to its catalog PIP. A wire of the anchor
// tile is named tile-relative ("E2"); any other node in full.
func (l *loader) pip(tile, src, dst string) (device.PIP, error) {
	row, col, err := device.ParseTileName(tile)
	if err != nil {
		return device.PIP{}, err
	}
	part := l.d.Part
	if part == nil {
		return device.PIP{}, errors.New("pip before design statement")
	}
	if row >= part.Rows || col >= part.Cols {
		return device.PIP{}, fmt.Errorf("tile %q out of range for %s", tile, part.Name)
	}
	s, err := node(part, src, row, col)
	if err != nil {
		return device.PIP{}, err
	}
	d, err := node(part, dst, row, col)
	if err != nil {
		return device.PIP{}, err
	}
	if l.graph == nil {
		l.graph = device.NewGraph(part)
	}
	pip, ok := l.graph.FindPIP(row, col, s, d)
	if !ok {
		return device.PIP{}, fmt.Errorf("no pip %s -> %s in tile %s", part.NodeName(s), part.NodeName(d), tile)
	}
	return pip, nil
}

func node(part *device.Part, name string, row, col int) (device.NodeID, error) {
	if w, ok := device.WireByName(name); ok {
		return part.TileWireNode(row, col, w), nil
	}
	return part.ParseNode(name, row, col)
}

// finish binds the ports, checks what only the whole design shows, and
// returns the design.
func (l *loader) finish() (*phys.Design, error) {
	d, nl := l.d, l.nl
	if d.Part == nil {
		return nil, fmt.Errorf("xdl: missing design statement")
	}
	for _, ps := range l.ports {
		var net *netlist.Net
		for _, ref := range l.refs {
			if ref.port == ps.name && ref.drive == (ps.dir == netlist.In) {
				net = ref.net
				break
			}
		}
		if net == nil {
			return nil, fmt.Errorf("phys: port %q not referenced by any net", ps.name)
		}
		p, err := nl.AddPort(ps.name, ps.dir, net)
		if err != nil {
			return nil, err
		}
		d.Ports[p] = ps.pad
	}
	if err := nl.FinishRaw(); err != nil {
		return nil, err
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	if err := d.CheckPlacement(); err != nil {
		return nil, fmt.Errorf("phys: bind: %w", err)
	}
	return d, nil
}
