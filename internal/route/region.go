package route

import (
	"repro/internal/device"
	"repro/internal/frames"
)

// Region-constrained routing. A net constrained to a region may only use
// routing resources whose configuration lives in the region's columns and
// whose electrical extent stays controlled:
//
//   - per-tile wires of tiles inside the region;
//   - pads adjacent to region tiles;
//   - global lines (clock distribution is region-independent);
//   - column long lines of region columns, only when the region spans the
//     device's full height (otherwise the line crosses foreign rows);
//   - row long lines of region rows, only when the region spans the full
//     width.
//
// This is the containment discipline module-based partial reconfiguration
// needs: everything a module's netlist configures then lives in its own
// columns, so rewriting those columns swaps the module completely.

// regionMask admits the routing resources of one region: a pip is usable
// when its tile lies in the region and both its nodes are marked. Nets that
// share a region share its mask, and the A* loop pays one bounds check and
// two loads per pip.
type regionMask struct {
	rg frames.Region
	ok []bool // per node
}

func (m *regionMask) allows(pip device.PIP) bool {
	return m.rg.Contains(pip.Row, pip.Col) && m.ok[pip.Src] && m.ok[pip.Dst]
}

// maskFor returns the mask of rg, filling a pooled one on first use in
// this run, or nil when the net is unconstrained.
func (r *router) maskFor(rg *frames.Region) *regionMask {
	if rg == nil {
		return nil
	}
	s := r.s
	for _, m := range s.masks[:s.nmasks] {
		if m.rg == *rg {
			return m
		}
	}
	if s.nmasks == len(s.masks) {
		s.masks = append(s.masks, &regionMask{ok: make([]bool, s.n)})
	}
	m := s.masks[s.nmasks]
	s.nmasks++
	m.fill(r.d.Part, *rg)
	return m
}

// fill marks the nodes of rg by the rules above. It walks only the
// region's own tiles and lines; the rest of the node space is just cleared,
// never classified node by node.
func (m *regionMask) fill(p *device.Part, rg frames.Region) {
	m.rg = rg
	clear(m.ok)
	r1, r2 := max(rg.R1, 0), min(rg.R2, p.Rows-1)
	c1, c2 := max(rg.C1, 0), min(rg.C2, p.Cols-1)
	for row := r1; row <= r2; row++ {
		for col := c1; col <= c2; col++ {
			for w := 0; w < device.WiresPerTile; w++ {
				m.ok[p.TileWireNode(row, col, w)] = true
			}
			for _, pad := range p.PadsOfTile(row, col) {
				m.ok[p.PadNodeI(pad)] = true
				m.ok[p.PadNodeO(pad)] = true
			}
		}
	}
	if rg.C1 == 0 && rg.C2 == p.Cols-1 { // full width
		for row := r1; row <= r2; row++ {
			for j := 0; j < device.NumLongPerRow; j++ {
				m.ok[p.RowLongNode(row, j)] = true
			}
		}
	}
	if rg.R1 == 0 && rg.R2 == p.Rows-1 { // full height
		for col := c1; col <= c2; col++ {
			for j := 0; j < device.NumLongPerCol; j++ {
				m.ok[p.ColLongNode(col, j)] = true
			}
		}
	}
	for g := 0; g < device.NumGlobals; g++ {
		m.ok[p.GlobalNode(g)] = true
	}
}
