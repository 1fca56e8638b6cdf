package route

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/frames"
)

// regionOracle is the region rule of region.go stated node by node through
// DescribeNode: the reference the pooled masks must reproduce exactly.
func regionOracle(p *device.Part, r frames.Region) func(device.PIP) bool {
	fullHeight := r.R1 == 0 && r.R2 == p.Rows-1
	fullWidth := r.C1 == 0 && r.C2 == p.Cols-1
	nodeOK := func(n device.NodeID) bool {
		d := p.DescribeNode(n)
		switch d.Kind {
		case device.NodeWire:
			return r.Contains(d.A, d.B)
		case device.NodeGlobal:
			return true
		case device.NodeColLong:
			return fullHeight && d.B >= r.C1 && d.B <= r.C2
		case device.NodeRowLong:
			return fullWidth && d.A >= r.R1 && d.A <= r.R2
		case device.NodePadI, device.NodePadO:
			pr, pc := p.PadTile(d.Pad)
			return r.Contains(pr, pc)
		}
		return false
	}
	return func(pip device.PIP) bool {
		return r.Contains(pip.Row, pip.Col) && nodeOK(pip.Src) && nodeOK(pip.Dst)
	}
}

// TestRegionMaskMatchesOracle checks every node and every graph pip of two
// parts against the oracle, for the region shapes the rule distinguishes.
// One mask is refilled for every region, as pooled storage is.
func TestRegionMaskMatchesOracle(t *testing.T) {
	for _, name := range []string{"XCV50", "XCV300"} {
		p := device.MustByName(name)
		g := device.NewGraph(p)
		m := &regionMask{ok: make([]bool, p.NumNodes())}
		for _, rg := range []struct {
			name string
			rg   frames.Region
		}{
			{"column band", frames.Region{R1: 0, C1: 3, R2: p.Rows - 1, C2: 8}},
			{"row band", frames.Region{R1: 4, C1: 0, R2: 9, C2: p.Cols - 1}},
			{"interior block", frames.Region{R1: 2, C1: 3, R2: 7, C2: 10}},
			{"single tile", frames.Region{R1: 5, C1: 6, R2: 5, C2: 6}},
			{"whole device", frames.Region{R1: 0, C1: 0, R2: p.Rows - 1, C2: p.Cols - 1}},
		} {
			t.Run(fmt.Sprintf("%s/%s", name, rg.name), func(t *testing.T) {
				m.fill(p, rg.rg)
				oracle := regionOracle(p, rg.rg)
				marked, admitted := 0, 0
				for n := device.NodeID(0); int(n) < p.NumNodes(); n++ {
					// A pip inside the region whose ends are both n admits
					// exactly when the oracle's node rule does.
					self := device.PIP{Row: rg.rg.R1, Col: rg.rg.C1, Src: n, Dst: n}
					if m.ok[n] != oracle(self) {
						t.Fatalf("node %s: mask %v, oracle %v", p.NodeName(n), m.ok[n], oracle(self))
					}
					if m.ok[n] {
						marked++
					}
					for _, pip := range g.From(n) {
						if got, want := m.allows(pip), oracle(pip); got != want {
							t.Fatalf("pip %+v (%s -> %s): mask %v, oracle %v",
								pip, p.NodeName(pip.Src), p.NodeName(pip.Dst), got, want)
						}
						if m.allows(pip) {
							admitted++
						}
					}
				}
				if marked == 0 || admitted == 0 {
					t.Fatalf("region admits %d nodes and %d pips; the comparison is vacuous", marked, admitted)
				}
			})
		}
	}
}
