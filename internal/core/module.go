package core

import (
	"fmt"
	"strings"

	"repro/internal/bitgen"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/jbits"
	"repro/internal/phys"
	"repro/internal/ucf"
)

// Module is one sub-module variant registered with a project: the physical
// design recovered from its XDL, the constraints that floorplanned it, and
// the containment analysis JPG performed on it.
type Module struct {
	Name string
	Phys *phys.Design
	Cons *ucf.Constraints

	// Declared is the floorplan region from the UCF AREA_GROUP constraints
	// (the union when cells belong to several groups); ok reports whether
	// any cell was constrained.
	Declared   frames.Region
	DeclaredOK bool
	// Touched is the bounding region of everything the module actually
	// configures: cell sites and routed PIPs.
	Touched frames.Region
}

func newModule(name string, design *phys.Design, cons *ucf.Constraints) (*Module, error) {
	m := &Module{Name: name, Phys: design, Cons: cons}

	// Declared region: union of the AREA_GROUP ranges of the module's cells.
	for _, c := range design.Netlist.Cells {
		rg, ok := cons.RegionFor(c.Name)
		if !ok {
			continue
		}
		if !m.DeclaredOK {
			m.Declared = rg
			m.DeclaredOK = true
			continue
		}
		m.Declared = frames.Region{
			R1: min(m.Declared.R1, rg.R1), C1: min(m.Declared.C1, rg.C1),
			R2: max(m.Declared.R2, rg.R2), C2: max(m.Declared.C2, rg.C2),
		}
	}

	// Touched region: cells plus routing.
	first := true
	grow := func(r, c int) {
		if first {
			m.Touched = frames.Region{R1: r, C1: c, R2: r, C2: c}
			first = false
			return
		}
		m.Touched.R1, m.Touched.C1 = min(m.Touched.R1, r), min(m.Touched.C1, c)
		m.Touched.R2, m.Touched.C2 = max(m.Touched.R2, r), max(m.Touched.C2, c)
	}
	for _, site := range design.Cells {
		grow(site.Row, site.Col)
	}
	for _, route := range design.Routes {
		for _, pip := range route.PIPs {
			grow(pip.Row, pip.Col)
		}
	}
	if first {
		return nil, fmt.Errorf("module has no placed cells")
	}
	return m, nil
}

// writeRegion resolves the full-height column region a partial bitstream for
// this module must rewrite. In strict mode the module must fit its declared
// columns; otherwise the columns widen to cover everything touched.
func (m *Module) writeRegion(p *device.Part, strict bool) (frames.Region, error) {
	c1, c2 := m.Touched.C1, m.Touched.C2
	if m.DeclaredOK {
		if strict && (c1 < m.Declared.C1 || c2 > m.Declared.C2) {
			return frames.Region{}, fmt.Errorf(
				"module %s escapes its declared columns: declared %v, touched %v",
				m.Name, m.Declared, m.Touched)
		}
		c1 = min(c1, m.Declared.C1)
		c2 = max(c2, m.Declared.C2)
	}
	return frames.Region{R1: 0, C1: c1, R2: p.Rows - 1, C2: c2}, nil
}

// program replays the module's configuration through the JBits layer.
func (m *Module) program(jb *jbits.JBits) error {
	return bitgen.Program(jb, m.Phys)
}

// Stats summarises the module for reports and the CLI.
func (m *Module) Stats() string {
	st := m.Phys.Netlist.Stats()
	return fmt.Sprintf("%s: %d LUTs, %d FFs, %d nets, %d pips, touched %v",
		m.Name, st.LUTs, st.DFFs, st.Nets, m.Phys.RoutedPIPCount(), m.Touched)
}

// FloorplanASCII renders the device floorplan with the module's footprint,
// the textual analogue of the JPG GUI's floorplan view (paper Figure 3):
// '#' marks CLBs holding module cells, '+' tiles touched only by routing,
// '|' the column span a partial bitstream will rewrite.
func (m *Module) FloorplanASCII(p *device.Part) string {
	region, err := m.writeRegion(p, false)
	if err != nil {
		region = m.Touched
	}
	cells := map[[2]int]bool{}
	for _, site := range m.Phys.Cells {
		cells[[2]int{site.Row, site.Col}] = true
	}
	routed := map[[2]int]bool{}
	for _, route := range m.Phys.Routes {
		for _, pip := range route.PIPs {
			routed[[2]int{pip.Row, pip.Col}] = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s floorplan on %s (cols %d..%d rewritten)\n",
		m.Name, p.Name, region.C1+1, region.C2+1)
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			switch {
			case cells[[2]int{r, c}]:
				b.WriteByte('#')
			case routed[[2]int{r, c}]:
				b.WriteByte('+')
			case c >= region.C1 && c <= region.C2:
				b.WriteByte('|')
			default:
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
