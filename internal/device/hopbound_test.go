package device

import "testing"

// TestHopBoundAdmissible checks HopBound against exact hop counts on the
// real routing graph. A reverse BFS from a sampled sink gives, for every
// node that reaches it, the fewest nodes a path from that node claims
// after it, the sink included. The router's node costs are all at least 1,
// so A* stays exact only if the bound never exceeds that count. The bound
// must also be exact for at least 40% of the pairs, so that a bound that
// decays toward 0 (and leaves A* close to Dijkstra) fails as well.
//
// The sinks cover every input-pin mux class (the catalog spreads pin g's
// mux inputs by g mod 8) and every pad edge, at corner, edge and interior
// tiles, on a small and a larger part.
func TestHopBoundAdmissible(t *testing.T) {
	for _, name := range []string{"XCV50", "XCV300"} {
		p := MustByName(name)
		preds, start := reverseGraph(NewGraph(p))
		tiles := [][2]int{
			{0, 0}, {p.Rows - 1, p.Cols - 1}, {p.Rows / 2, p.Cols / 3}, {0, p.Cols / 2},
			{p.Rows - 1, 1}, {p.Rows / 3, 0}, {p.Rows - 2, p.Cols - 2}, {p.Rows / 4, p.Cols - 1},
		}
		var sinks []NodeID
		for class := 0; class < 8; class++ {
			n := 0
			for g := class; g < NumInPinsPerTile && n < 2; g += 8 {
				s, k := g/InPinsPerSlice, g%InPinsPerSlice
				if k == PinCLK { // global-only, never a fabric sink
					continue
				}
				tile := tiles[(2*class+n)%len(tiles)]
				sinks = append(sinks, p.TileWireNode(tile[0], tile[1], InPinWire(s, k)))
				n++
			}
		}
		for edge := EdgeL; edge <= EdgeB; edge++ {
			last := p.Rows - 1
			if edge == EdgeT || edge == EdgeB {
				last = p.Cols - 1
			}
			for _, i := range []int{0, last / 2, last} {
				sinks = append(sinks, p.PadNodeO(Pad{Edge: edge, Index: i}))
			}
		}

		dist := make([]int32, p.NumNodes())
		queue := make([]NodeID, 0, p.NumNodes())
		pairs, exact := 0, 0
		for _, sink := range sinks {
			goal := p.HopTarget(sink)
			for i := range dist {
				dist[i] = -1
			}
			dist[sink] = 0
			queue = append(queue[:0], sink)
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				for _, src := range preds[start[cur]:start[cur+1]] {
					if dist[src] < 0 {
						dist[src] = dist[cur] + 1
						queue = append(queue, src)
					}
				}
			}
			for n := NodeID(0); int(n) < p.rowLongBase(); n++ {
				if dist[n] < 0 {
					continue
				}
				b := p.HopBound(n, goal)
				if b > int(dist[n]) {
					t.Fatalf("%s: HopBound(%s, %s) = %d, but a path claims %d nodes",
						name, p.NodeName(n), p.NodeName(sink), b, dist[n])
				}
				pairs++
				if b == int(dist[n]) {
					exact++
				}
			}
		}
		frac := float64(exact) / float64(pairs)
		t.Logf("%s: %d sinks, %d node-sink pairs, bound exact for %.1f%%", name, len(sinks), pairs, 100*frac)
		if frac < 0.40 {
			t.Errorf("%s: bound exact for %.1f%% of pairs, want at least 40%%", name, 100*frac)
		}
	}
}

// TestHopBoundOffFabric pins the bound at 0 for nodes without a tile, and
// for every node when the target is neither an input pin nor an output pad.
func TestHopBoundOffFabric(t *testing.T) {
	p := MustByName("XCV50")
	pin := p.HopTarget(p.TileWireNode(3, 4, InPinWire(0, PinF1)))
	for _, n := range []NodeID{p.RowLongNode(2, 0), p.ColLongNode(5, 1), p.GlobalNode(0),
		p.PadNodeI(Pad{EdgeL, 2}), p.PadNodeO(Pad{EdgeT, 4})} {
		if b := p.HopBound(n, pin); b != 0 {
			t.Errorf("HopBound(%s) = %d, want 0", p.NodeName(n), b)
		}
	}
	for _, target := range []NodeID{p.TileWireNode(3, 4, SingleWire(DirE, 0)), p.PadNodeI(Pad{EdgeL, 2}), p.GlobalNode(1)} {
		goal := p.HopTarget(target)
		if b := p.HopBound(p.TileWireNode(9, 9, WireOutBase), goal); b != 0 {
			t.Errorf("target %s: HopBound = %d, want 0", p.NodeName(target), b)
		}
	}
}

// reverseGraph returns the graph's reverse adjacency in CSR form: the
// sources of the PIPs into node n are preds[start[n]:start[n+1]].
func reverseGraph(g *Graph) (preds []NodeID, start []int32) {
	n := g.Part.NumNodes()
	start = make([]int32, n+1)
	for v := 0; v < n; v++ {
		for _, pip := range g.From(NodeID(v)) {
			start[pip.Dst+1]++
		}
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	preds = make([]NodeID, start[n])
	next := append([]int32(nil), start[:n]...)
	for v := 0; v < n; v++ {
		for _, pip := range g.From(NodeID(v)) {
			preds[next[pip.Dst]] = NodeID(v)
			next[pip.Dst]++
		}
	}
	return preds, start
}
