package netlist

// Text serialisation of technology-mapped netlists (".net" files): the
// repository's stand-in for the EDIF/NGD netlist files the Xilinx flow
// exchanges between synthesis and implementation. The format is line-based:
//
//	design "<name>"
//	net "<name>" [clock]
//	port "<name>" in|out net="<net>" [pad="P_L3"]
//	lut "<name>" init=<hex4> in="<net>"[,"<net>"...] out="<net>"
//	dff "<name>" init=<0|1> d="<net>" c="<net>" [ce="<net>"] [r="<net>"] out="<net>"
//
// Names are written verbatim between the quotes, with no escapes: a name is
// non-empty and may hold any byte but a quote or a newline, and a net name
// no comma either (the input-list separator). Nets are declared before use;
// emit order is deterministic.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// checkName rejects a name the text format cannot carry: an empty one, or
// one holding a delimiter.
func checkName(what, name, delims string) error {
	if name == "" || strings.ContainsAny(name, delims) {
		return fmt.Errorf("netlist: %s name %q not serialisable (empty, or holds one of %q)", what, name, delims)
	}
	return nil
}

const (
	nameDelims    = "\"\n"
	netNameDelims = "\"\n,"
)

// EmitText serialises the design. It rejects any name ParseText could not
// read back (see the format above).
func EmitText(d *Design) (string, error) {
	if err := d.Validate(); err != nil {
		return "", err
	}
	if err := checkName("design", d.Name, nameDelims); err != nil {
		return "", err
	}
	for _, n := range d.Nets {
		if err := checkName("net", n.Name, netNameDelims); err != nil {
			return "", err
		}
	}
	for _, c := range d.Cells {
		if err := checkName("cell", c.Name, nameDelims); err != nil {
			return "", err
		}
	}
	for _, p := range d.Ports {
		if err := checkName("port", p.Name, nameDelims); err != nil {
			return "", err
		}
		if p.Pad != "" {
			if err := checkName("pad", p.Pad, nameDelims); err != nil {
				return "", err
			}
		}
	}
	var nets []*Net
	for _, n := range d.SortedNets() {
		if n.Driven() || n.FanOut() > 0 { // drop orphans
			nets = append(nets, n)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# netlist \"%s\": %d cells, %d nets\n", d.Name, len(d.Cells), len(nets))
	fmt.Fprintf(&b, "design \"%s\"\n", d.Name)
	for _, n := range nets {
		if n.IsClock {
			fmt.Fprintf(&b, "net \"%s\" clock\n", n.Name)
		} else {
			fmt.Fprintf(&b, "net \"%s\"\n", n.Name)
		}
	}
	ports := append([]*Port(nil), d.Ports...)
	sort.Slice(ports, func(i, j int) bool { return ports[i].Name < ports[j].Name })
	for _, p := range ports {
		pad := ""
		if p.Pad != "" {
			pad = fmt.Sprintf(" pad=\"%s\"", p.Pad)
		}
		fmt.Fprintf(&b, "port \"%s\" %s net=\"%s\"%s\n", p.Name, p.Dir, p.Net.Name, pad)
	}
	for _, c := range d.SortedCells() {
		switch c.Kind {
		case KindLUT4:
			ins := make([]string, len(c.Inputs))
			for i, in := range c.Inputs {
				ins[i] = `"` + in.Name + `"`
			}
			fmt.Fprintf(&b, "lut \"%s\" init=%04X in=%s out=\"%s\"\n",
				c.Name, c.Init, strings.Join(ins, ","), c.Out.Name)
		case KindDFF:
			fmt.Fprintf(&b, "dff \"%s\" init=%d d=\"%s\" c=\"%s\"", c.Name, c.Init&1, c.Inputs[0].Name, c.Clock.Name)
			if c.CE != nil {
				fmt.Fprintf(&b, " ce=\"%s\"", c.CE.Name)
			}
			if c.Reset != nil {
				fmt.Fprintf(&b, " r=\"%s\"", c.Reset.Name)
			}
			fmt.Fprintf(&b, " out=\"%s\"\n", c.Out.Name)
		}
	}
	return b.String(), nil
}

// ParseText reads a serialised netlist.
func ParseText(text string) (*Design, error) {
	var d *Design
	nets := map[string]*Net{}
	needNet := func(name string) (*Net, error) {
		n, ok := nets[name]
		if !ok {
			return nil, fmt.Errorf("undeclared net %q", name)
		}
		return n, nil
	}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		toks, err := tokenizeNet(line)
		if err != nil {
			return nil, fmt.Errorf("netlist: line %d: %w", lineNo+1, err)
		}
		if len(toks) == 0 {
			continue
		}
		if toks[0] != "design" && d == nil {
			return nil, fmt.Errorf("netlist: line %d: design statement must come first", lineNo+1)
		}
		if err := parseTextLine(&d, nets, needNet, toks); err != nil {
			return nil, fmt.Errorf("netlist: line %d: %w", lineNo+1, err)
		}
	}
	if d == nil {
		return nil, fmt.Errorf("netlist: no design statement")
	}
	if err := d.FinishRaw(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func parseTextLine(d **Design, nets map[string]*Net, needNet func(string) (*Net, error), toks []string) error {
	// Attributes follow the statement's name, which may itself hold "=".
	kv := map[string]string{}
	for _, t := range toks[min(2, len(toks)):] {
		if k, v, ok := strings.Cut(t, "="); ok {
			kv[k] = v
		}
	}
	switch toks[0] {
	case "design":
		if len(toks) < 2 {
			return fmt.Errorf("design statement wants a name")
		}
		if *d != nil {
			return fmt.Errorf("second design statement")
		}
		*d = NewDesign(toks[1])
		return nil

	case "net":
		if len(toks) < 2 {
			return fmt.Errorf("net statement wants a name")
		}
		if err := checkName("net", toks[1], netNameDelims); err != nil {
			return err
		}
		n := (*d).NewNet(toks[1])
		if n.Name != toks[1] {
			return fmt.Errorf("duplicate net %q", toks[1])
		}
		for _, t := range toks[2:] {
			if t == "clock" {
				n.IsClock = true
			}
		}
		nets[toks[1]] = n
		return nil

	case "port":
		if len(toks) < 3 {
			return fmt.Errorf("port statement wants name and direction")
		}
		net, err := needNet(kv["net"])
		if err != nil {
			return err
		}
		var dir PortDir
		switch toks[2] {
		case "in":
			dir = In
		case "out":
			dir = Out
		default:
			return fmt.Errorf("bad port direction %q", toks[2])
		}
		p, err := (*d).AddPort(toks[1], dir, net)
		if err != nil {
			return err
		}
		p.Pad = kv["pad"]
		return nil

	case "lut":
		if len(toks) < 2 {
			return fmt.Errorf("lut statement wants a name")
		}
		init, err := strconv.ParseUint(kv["init"], 16, 16)
		if err != nil {
			return fmt.Errorf("bad lut init %q", kv["init"])
		}
		c, err := (*d).NewRawCell(toks[1], KindLUT4, uint16(init))
		if err != nil {
			return err
		}
		if kv["in"] == "" {
			return fmt.Errorf("lut %q has no inputs", toks[1])
		}
		for i, name := range splitQuoted(kv["in"]) {
			if i > 3 {
				return fmt.Errorf("lut %q has too many inputs", toks[1])
			}
			net, err := needNet(name)
			if err != nil {
				return err
			}
			if err := (*d).BindInput(c, fmt.Sprintf("I%d", i), net); err != nil {
				return err
			}
		}
		out, err := needNet(kv["out"])
		if err != nil {
			return err
		}
		return (*d).BindOutput(c, out)

	case "dff":
		if len(toks) < 2 {
			return fmt.Errorf("dff statement wants a name")
		}
		init, err := strconv.ParseUint(kv["init"], 10, 1)
		if err != nil {
			return fmt.Errorf("bad dff init %q", kv["init"])
		}
		c, err := (*d).NewRawCell(toks[1], KindDFF, uint16(init))
		if err != nil {
			return err
		}
		// Pins bind in a fixed order: a net on two pins of one flip-flop
		// lists its sinks the same way on every parse.
		for _, pk := range [...][2]string{{"D", "d"}, {"C", "c"}, {"CE", "ce"}, {"R", "r"}} {
			pin, key := pk[0], pk[1]
			name, present := kv[key]
			if !present {
				if pin == "D" || pin == "C" {
					return fmt.Errorf("dff %q missing %s", toks[1], key)
				}
				continue
			}
			net, err := needNet(name)
			if err != nil {
				return err
			}
			if err := (*d).BindInput(c, pin, net); err != nil {
				return err
			}
		}
		out, err := needNet(kv["out"])
		if err != nil {
			return err
		}
		return (*d).BindOutput(c, out)
	}
	return fmt.Errorf("unknown statement %q", toks[0])
}

// tokenizeNet splits a line into tokens, keeping key=value pairs intact and
// resolving quoted strings (both bare and inside values).
func tokenizeNet(line string) ([]string, error) {
	var toks []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		ch := line[i]
		switch {
		case ch == '"':
			inQuote = !inQuote
		case (ch == ' ' || ch == '\t') && !inQuote:
			flush()
		default:
			cur.WriteByte(ch)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote")
	}
	flush()
	return toks, nil
}

// splitQuoted splits a comma-separated list whose items were quoted (quotes
// already stripped by tokenizeNet).
func splitQuoted(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}
