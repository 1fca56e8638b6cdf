package phys

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/device"
	"repro/internal/netlist"
)

// CheckRoutes verifies every non-trivial net is routed as a legal tree: the
// PIPs form a connected, singly-driven tree from the net's source node to
// every sink node, no PIP is unused, and no routing node is driven by two
// different nets. Nets are checked in netlist order and a net's PIPs in
// route order, so a design with several faults always reports the same one.
func (d *Design) CheckRoutes() error {
	g := device.NewGraph(d.Part)
	s := getCheckScratch(d.Part.NumNodes())
	defer checkPool.Put(s)
	call := nextEpoch(&s.callEpoch, s.ownedAt)
	for ni, n := range d.Netlist.Nets {
		if !n.Driven() {
			continue
		}
		sinks, err := d.appendSinkNodes(s.sinks[:0], n)
		if err != nil {
			return err
		}
		s.sinks = sinks
		route := d.Routes[n]
		if len(sinks) == 0 {
			if route != nil && len(route.PIPs) > 0 {
				return fmt.Errorf("phys: net %q has routing but no sinks", n.Name)
			}
			continue
		}
		if route == nil {
			return fmt.Errorf("phys: net %q unrouted", n.Name)
		}
		src, err := d.SourceNode(n)
		if err != nil {
			return err
		}
		if n.IsClock {
			if route.Global < 0 || route.Global >= device.NumGlobals {
				return fmt.Errorf("phys: clock net %q not on a global line", n.Name)
			}
			src = d.Part.GlobalNode(route.Global)
		}
		if err := s.checkTree(g, n, src, sinks, route.PIPs); err != nil {
			return err
		}
		// Cross-net sharing: every driven node belongs to one net.
		for _, pip := range route.PIPs {
			if s.ownedAt[pip.Dst] == call && s.owner[pip.Dst] != int32(ni) {
				return fmt.Errorf("phys: node %s driven by nets %q and %q",
					d.Part.NodeName(pip.Dst), d.Netlist.Nets[s.owner[pip.Dst]].Name, n.Name)
			}
			s.owner[pip.Dst], s.ownedAt[pip.Dst] = int32(ni), call
		}
	}
	return nil
}

// checkScratch is CheckRoutes' node-indexed state, sized to one part's node
// space. Calls borrow it from a pool, as the router borrows its scratch, and
// stamp entries with an epoch instead of clearing them: each call takes an
// epoch for node ownership, and each net one for its own tree.
type checkScratch struct {
	n                   int
	callEpoch, netEpoch int32

	owner   []int32 // netlist index of the net driving the node this call
	ownedAt []int32 // call epoch that set owner

	driver   []int32 // index of the current net's PIP into the node
	drivenAt []int32 // net epoch that set driver

	reached   []bool  // whether the current net's source reaches the node
	resolved  []int32 // net epoch that set reached
	chainPath []device.NodeID
	sinks     []device.NodeID // the current net's sink nodes
}

var checkPool sync.Pool

func getCheckScratch(n int) *checkScratch {
	if s, _ := checkPool.Get().(*checkScratch); s != nil && s.n == n {
		return s
	}
	return &checkScratch{
		n:        n,
		owner:    make([]int32, n),
		ownedAt:  make([]int32, n),
		driver:   make([]int32, n),
		drivenAt: make([]int32, n),
		reached:  make([]bool, n),
		resolved: make([]int32, n),
	}
}

// nextEpoch advances an epoch counter, invalidating the stamps it guards in
// O(1). On (rare) wrap the stamps are cleared for real, keeping old epochs
// from aliasing new ones.
func nextEpoch(epoch *int32, stamps ...[]int32) int32 {
	if *epoch == math.MaxInt32 {
		*epoch = 0
		for _, st := range stamps {
			clear(st)
		}
	}
	*epoch++
	return *epoch
}

// checkTree checks one net's PIPs: each in its tile's catalog, no node
// driven twice, every sink reached from src and no PIP left unreached.
func (s *checkScratch) checkTree(g *device.Graph, n *netlist.Net, src device.NodeID, sinks []device.NodeID, pips []device.PIP) error {
	p := g.Part
	net := nextEpoch(&s.netEpoch, s.drivenAt, s.resolved)
	for k, pip := range pips {
		// PIP must exist in the owning tile's catalog.
		if got, ok := g.FindPIP(pip.Row, pip.Col, pip.Src, pip.Dst); !ok || got.CatalogIdx != pip.CatalogIdx {
			return fmt.Errorf("phys: net %q uses pip not in catalog (%s -> %s)",
				n.Name, p.NodeName(pip.Src), p.NodeName(pip.Dst))
		}
		if s.drivenAt[pip.Dst] == net {
			return fmt.Errorf("phys: net %q drives node %s twice", n.Name, p.NodeName(pip.Dst))
		}
		s.driver[pip.Dst], s.drivenAt[pip.Dst] = int32(k), net
	}
	for _, v := range sinks {
		if !s.reaches(v, src, pips, net) {
			return fmt.Errorf("phys: net %q does not reach sink %s", n.Name, p.NodeName(v))
		}
	}
	for _, pip := range pips {
		if !s.reaches(pip.Dst, src, pips, net) {
			return fmt.Errorf("phys: net %q has orphan routing at %s", n.Name, p.NodeName(pip.Dst))
		}
	}
	return nil
}

// reaches reports whether the net's PIPs connect src to v. No node has two
// drivers in the net by now, so v is reached exactly when it is src or its
// one driving PIP starts at a reached node. reaches follows that chain back
// until it meets src, a node already resolved for this net, or a node the
// net does not drive, then resolves every node it passed. A node on the
// chain being walked counts as unreached, so a loop of PIPs cut off from
// src resolves as unreached, as a search from src would leave it.
func (s *checkScratch) reaches(v, src device.NodeID, pips []device.PIP, net int32) bool {
	path := s.chainPath[:0]
	ok := false
	for {
		if v == src {
			ok = true
			break
		}
		if s.resolved[v] == net {
			ok = s.reached[v]
			break
		}
		if s.drivenAt[v] != net {
			break
		}
		s.reached[v], s.resolved[v] = false, net
		path = append(path, v)
		v = pips[s.driver[v]].Src
	}
	for _, u := range path {
		s.reached[u] = ok
	}
	s.chainPath = path
	return ok
}
