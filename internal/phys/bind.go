package phys

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/netlist"
)

// Bind reconstructs a physical design from its serialised form onto an
// EXISTING netlist, matching cells, ports and nets by name. This is how the
// flow's build cache rehydrates a memoized placement or routing, and how
// Unflatten finishes once it has built a fresh netlist: Bind keeps the
// caller's netlist as the design's backbone, so pointer-keyed consumers (pad
// lookups via nl.Ports, bitgen walking nl.Cells) see the objects they
// already hold.
//
// The netlist must be structurally identical to the one the Flat was
// produced from — the cache guarantees that by keying on the netlist
// fingerprint — but Bind still verifies names, kinds and counts so a stale
// or colliding entry surfaces as an error (and the caller falls back to
// recomputing) rather than as a corrupt design.
func Bind(f *Flat, part *device.Part, nl *netlist.Design) (*Design, error) {
	if f.Part != part.Name {
		return nil, fmt.Errorf("phys: bind: flat is for part %q, want %q", f.Part, part.Name)
	}
	if f.Design != nl.Name {
		return nil, fmt.Errorf("phys: bind: flat is design %q, want %q", f.Design, nl.Name)
	}
	if len(f.Cells) != len(nl.Cells) {
		return nil, fmt.Errorf("phys: bind: %d placed cells for %d netlist cells", len(f.Cells), len(nl.Cells))
	}
	if len(f.Ports) != len(nl.Ports) {
		return nil, fmt.Errorf("phys: bind: %d bound ports for %d netlist ports", len(f.Ports), len(nl.Ports))
	}
	d := NewDesign(part, nl)
	for _, fc := range f.Cells {
		c, ok := nl.Cell(fc.Name)
		if !ok {
			return nil, fmt.Errorf("phys: bind: netlist has no cell %q", fc.Name)
		}
		if c.Kind.String() != fc.Kind || c.Init != fc.Init {
			return nil, fmt.Errorf("phys: bind: cell %q mismatch (%s/%#x vs %s/%#x)",
				fc.Name, fc.Kind, fc.Init, c.Kind, c.Init)
		}
		if !fc.Site.Valid(part) {
			return nil, fmt.Errorf("phys: bind: cell %q site %v invalid for %s", fc.Name, fc.Site, part.Name)
		}
		d.Cells[c] = fc.Site
	}
	for _, fp := range f.Ports {
		p, ok := nl.Port(fp.Name)
		if !ok {
			return nil, fmt.Errorf("phys: bind: netlist has no port %q", fp.Name)
		}
		if p.Dir.String() != fp.Dir {
			return nil, fmt.Errorf("phys: bind: port %q direction mismatch", fp.Name)
		}
		pad, err := device.ParsePad(fp.Pad)
		if err != nil {
			return nil, fmt.Errorf("phys: bind: port %q: %w", fp.Name, err)
		}
		d.Ports[p] = pad
	}
	for _, fn := range f.Nets {
		if len(fn.PIPs) == 0 && fn.Global < 0 {
			continue
		}
		n, ok := nl.Net(fn.Name)
		if !ok {
			return nil, fmt.Errorf("phys: bind: netlist has no net %q", fn.Name)
		}
		r := &Route{Net: n, Global: fn.Global}
		for _, fpip := range fn.PIPs {
			pip, err := resolvePIP(part, fpip)
			if err != nil {
				return nil, fmt.Errorf("phys: bind: net %q: %w", fn.Name, err)
			}
			r.PIPs = append(r.PIPs, pip)
		}
		d.Routes[n] = r
	}
	if err := d.CheckPlacement(); err != nil {
		return nil, fmt.Errorf("phys: bind: %w", err)
	}
	return d, nil
}
