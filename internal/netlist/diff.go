package netlist

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements the structural diff between two netlists that drives
// the incremental flow: classify an edit as empty, INIT-only (truth-table or
// flip-flop reset value changes on otherwise identical structure) or
// structural (anything the placer or router could observe). INIT-only edits
// are the paper's fast path — a LUT reprogram touches only the frames of the
// column holding the cell — while structural edits invalidate placement and
// routing and fall back to a full rebuild.

// InitEdit records an INIT-only change to one cell: same name, kind and
// connectivity in both designs, different Init value.
type InitEdit struct {
	Name             string
	Kind             CellKind
	OldInit, NewInit uint16
}

// DesignDiff is the delta between a previous and a next netlist. Cell, net
// and port deltas are recorded by name, sorted, so the diff itself is
// deterministic regardless of map iteration order.
type DesignDiff struct {
	// InitEdits lists cells whose Init changed but whose structure did not.
	InitEdits []InitEdit

	// Structural deltas. Any non-empty slice (or flag) here means placement
	// and routing cannot be reused.
	AddedCells, RemovedCells, RewiredCells []string
	AddedNets, RemovedNets, RewiredNets    []string
	AddedPorts, RemovedPorts, RewiredPorts []string
	// NameChanged is set when the design names differ.
	NameChanged bool
	// OrderChanged is set when both designs hold the same content but in a
	// different construction order. Placement iterates construction order,
	// so reordering is a structural change even though no element differs.
	OrderChanged bool
}

// Empty reports whether the two designs are identical (same fingerprint-
// relevant content in the same order).
func (d *DesignDiff) Empty() bool {
	return len(d.InitEdits) == 0 && !d.structural()
}

// InitOnly reports whether the edit is confined to cell Init values: the
// fast incremental path applies, because neither the placer nor the router
// consults Init.
func (d *DesignDiff) InitOnly() bool {
	return len(d.InitEdits) > 0 && !d.structural()
}

// Structural reports whether the edit changes anything placement or routing
// could observe, forcing a full rebuild.
func (d *DesignDiff) Structural() bool { return d.structural() }

func (d *DesignDiff) structural() bool {
	return len(d.AddedCells)+len(d.RemovedCells)+len(d.RewiredCells)+
		len(d.AddedNets)+len(d.RemovedNets)+len(d.RewiredNets)+
		len(d.AddedPorts)+len(d.RemovedPorts)+len(d.RewiredPorts) > 0 ||
		d.NameChanged || d.OrderChanged
}

// Class names the diff's category for stats and spans.
func (d *DesignDiff) Class() string {
	switch {
	case d.Empty():
		return "empty"
	case d.InitOnly():
		return "init-only"
	default:
		return "structural"
	}
}

// Summary renders a short human-readable description of the delta.
func (d *DesignDiff) Summary() string {
	if d.Empty() {
		return "no change"
	}
	var parts []string
	add := func(n int, what string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, what))
		}
	}
	add(len(d.InitEdits), "init edits")
	add(len(d.AddedCells), "cells added")
	add(len(d.RemovedCells), "cells removed")
	add(len(d.RewiredCells), "cells rewired")
	add(len(d.AddedNets)+len(d.RemovedNets)+len(d.RewiredNets), "net changes")
	add(len(d.AddedPorts)+len(d.RemovedPorts)+len(d.RewiredPorts), "port changes")
	if d.NameChanged {
		parts = append(parts, "design renamed")
	}
	if d.OrderChanged {
		parts = append(parts, "construction order changed")
	}
	return strings.Join(parts, ", ")
}

// cellSig is a cell's placement-visible structure, excluding Init.
func cellSig(c *Cell) string {
	var b strings.Builder
	b.WriteString(c.Kind.String())
	for _, in := range c.Inputs {
		b.WriteByte('|')
		b.WriteString(netName(in))
	}
	for _, n := range []*Net{c.Clock, c.CE, c.Reset, c.Out} {
		b.WriteByte('|')
		b.WriteString(netName(n))
	}
	return b.String()
}

// netSig is a net's connectivity signature.
func netSig(n *Net) string {
	var b strings.Builder
	if n.IsClock {
		b.WriteString("clk|")
	}
	b.WriteString(n.Driver.String())
	if n.DriverPort != nil {
		b.WriteByte('|')
		b.WriteString(n.DriverPort.Name)
	}
	for _, s := range n.Sinks {
		b.WriteByte('|')
		b.WriteString(s.String())
	}
	for _, sp := range n.SinkPorts {
		b.WriteByte('|')
		b.WriteString(sp.Name)
	}
	return b.String()
}

// portSig is a port's signature.
func portSig(p *Port) string {
	return p.Dir.String() + "|" + p.Pad + "|" + netName(p.Net)
}

func netName(n *Net) string {
	if n == nil {
		return ""
	}
	return n.Name
}

// Diff computes the delta from prev to next. Both designs are read-only
// inputs; the result is self-contained (names and values, no pointers into
// either design).
func Diff(prev, next *Design) *DesignDiff {
	d := &DesignDiff{NameChanged: prev.Name != next.Name}

	for _, nc := range next.Cells {
		pc, ok := prev.cellsByName[nc.Name]
		switch {
		case !ok:
			d.AddedCells = append(d.AddedCells, nc.Name)
		case cellSig(pc) != cellSig(nc):
			d.RewiredCells = append(d.RewiredCells, nc.Name)
		case pc.Init != nc.Init:
			d.InitEdits = append(d.InitEdits, InitEdit{
				Name: nc.Name, Kind: nc.Kind, OldInit: pc.Init, NewInit: nc.Init,
			})
		}
	}
	for _, pc := range prev.Cells {
		if _, ok := next.cellsByName[pc.Name]; !ok {
			d.RemovedCells = append(d.RemovedCells, pc.Name)
		}
	}

	for _, nn := range next.Nets {
		pn, ok := prev.netsByName[nn.Name]
		switch {
		case !ok:
			d.AddedNets = append(d.AddedNets, nn.Name)
		case netSig(pn) != netSig(nn):
			d.RewiredNets = append(d.RewiredNets, nn.Name)
		}
	}
	for _, pn := range prev.Nets {
		if _, ok := next.netsByName[pn.Name]; !ok {
			d.RemovedNets = append(d.RemovedNets, pn.Name)
		}
	}

	for _, np := range next.Ports {
		pp, ok := prev.portsByName[np.Name]
		switch {
		case !ok:
			d.AddedPorts = append(d.AddedPorts, np.Name)
		case portSig(pp) != portSig(np):
			d.RewiredPorts = append(d.RewiredPorts, np.Name)
		}
	}
	for _, pp := range prev.Ports {
		if _, ok := next.portsByName[pp.Name]; !ok {
			d.RemovedPorts = append(d.RemovedPorts, pp.Name)
		}
	}

	// Same element sets, but a different construction order still changes
	// what the placer does (it iterates the slices in order).
	if !d.structural() {
		d.OrderChanged = orderDiffers(prev, next)
	}

	sort.Slice(d.InitEdits, func(i, j int) bool { return d.InitEdits[i].Name < d.InitEdits[j].Name })
	for _, s := range [][]string{
		d.AddedCells, d.RemovedCells, d.RewiredCells,
		d.AddedNets, d.RemovedNets, d.RewiredNets,
		d.AddedPorts, d.RemovedPorts, d.RewiredPorts,
	} {
		sort.Strings(s)
	}
	return d
}

func orderDiffers(prev, next *Design) bool {
	for i := range prev.Cells {
		if prev.Cells[i].Name != next.Cells[i].Name {
			return true
		}
	}
	for i := range prev.Nets {
		if prev.Nets[i].Name != next.Nets[i].Name {
			return true
		}
	}
	for i := range prev.Ports {
		if prev.Ports[i].Name != next.Ports[i].Name {
			return true
		}
	}
	return false
}
