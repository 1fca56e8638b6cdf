package route

import (
	"container/heap"
	"math"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/netlist"
)

// TestSearchMatchesDijkstra checks that A* under device.HopBound returns
// cheapest paths. After PathFinder's first iteration the graph carries
// present-sharing and history costs; every net is then rerouted, and each
// of its searches must return a legal path that costs what a plain Dijkstra
// over the same graph, node costs and region mask finds. Every other net is
// held to a full-height column band around its pins, the way floorplanned
// modules are, so constrained and unconstrained searches and searches to
// output pads are all checked.
func TestSearchMatchesDijkstra(t *testing.T) {
	nl, err := designs.Standalone(designs.SBoxBank{N: 24, Seed: 9}, "sb", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	d := placeDesign(t, "XCV50", nl, nil, 5)
	part := d.Part

	bands := map[*netlist.Net]*frames.Region{}
	for i, n := range nl.SortedNets() {
		if i%2 == 1 || n.IsClock || !n.Driven() {
			continue
		}
		src, err := d.SourceNode(n)
		if err != nil {
			t.Fatal(err)
		}
		sinks, err := d.SinkNodes(n)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := part.Cols, -1
		for _, node := range append(sinks, src) {
			col := nodeCol(part, node)
			lo, hi = min(lo, col), max(hi, col)
		}
		bands[n] = &frames.Region{R1: 0, C1: max(lo-2, 0), R2: part.Rows - 1, C2: min(hi+2, part.Cols-1)}
	}
	r := newRouter(d, Options{RegionForNet: func(n *netlist.Net) *frames.Region { return bands[n] }})
	r.s = getScratch(part.NumNodes())
	defer putScratch(r.s)
	nets, err := r.collectNets()
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range nets {
		if _, err := r.turn(fn, 0, presentFactor); err != nil {
			t.Fatal(err)
		}
	}
	if r.overusedNodes() == 0 {
		t.Fatal("iteration 0 left no congestion to search around")
	}
	presentFac := r.negotiate(presentFactor)

	var constrained, free, pads int
	for _, fn := range nets {
		r.ripUp(fn)
		tree := []device.NodeID{fn.src}
		for _, sink := range fn.sinks {
			want := dijkstra(r, tree, sink, presentFac, fn.region)
			path, err := r.search(tree, sink, presentFac, fn.region)
			if err != nil {
				t.Fatalf("net %q to %s: %v (Dijkstra cost %v)", fn.net.Name, part.NodeName(sink), err, want)
			}
			got := 0.0
			at := path[0].pip.Src
			if !containsNode(tree, at) {
				t.Fatalf("net %q: path starts at %s, off the tree", fn.net.Name, part.NodeName(at))
			}
			for _, te := range path {
				if te.pip.Src != at || te.node != te.pip.Dst || (fn.region != nil && !fn.region.allows(te.pip)) {
					t.Fatalf("net %q: illegal path edge %s", fn.net.Name, part.NodeName(te.node))
				}
				got += r.nodeCost(te.node, presentFac)
				at = te.node
			}
			if at != sink {
				t.Fatalf("net %q: path ends at %s, want %s", fn.net.Name, part.NodeName(at), part.NodeName(sink))
			}
			if math.Abs(got-want) > 1e-9*want {
				t.Fatalf("net %q to %s: A* path costs %v, Dijkstra %v", fn.net.Name, part.NodeName(sink), got, want)
			}
			for _, te := range path {
				fn.tree = append(fn.tree, te)
				r.s.occ[te.node]++
				tree = append(tree, te.node)
			}
			if fn.region != nil {
				constrained++
			} else {
				free++
			}
			if part.DescribeNode(sink).Kind == device.NodePadO {
				pads++
			}
		}
	}
	t.Logf("%d constrained and %d unconstrained searches (%d to output pads) match Dijkstra", constrained, free, pads)
	if constrained == 0 || free == 0 || pads == 0 {
		t.Fatalf("%d constrained, %d unconstrained, %d pad searches: the design does not cover every case", constrained, free, pads)
	}
}

// nodeCol is the CLB column a fabric node or pad sits in.
func nodeCol(p *device.Part, n device.NodeID) int {
	if _, col, _, ok := p.NodeTile(n); ok {
		return col
	}
	_, col := p.PadTile(p.DescribeNode(n).Pad)
	return col
}

func containsNode(nodes []device.NodeID, n device.NodeID) bool {
	for _, m := range nodes {
		if m == n {
			return true
		}
	}
	return false
}

// dijkstra is the reference search: the cheapest cost of a path from any
// tree node to the target over the router's graph, node costs and region
// mask, with no heuristic. It returns +Inf when the target is unreachable.
func dijkstra(r *router, tree []device.NodeID, target device.NodeID, presentFac float64, region *regionMask) float64 {
	dist := make([]float64, r.s.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	var q refQueue
	for _, n := range tree {
		dist[n] = 0
		heap.Push(&q, refItem{n, 0})
	}
	for q.Len() > 0 {
		cur := heap.Pop(&q).(refItem)
		if cur.node == target {
			return cur.cost
		}
		if cur.cost > dist[cur.node] {
			continue
		}
		for _, pip := range r.g.From(cur.node) {
			if region != nil && !region.allows(pip) {
				continue
			}
			if nd := cur.cost + r.nodeCost(pip.Dst, presentFac); nd < dist[pip.Dst] {
				dist[pip.Dst] = nd
				heap.Push(&q, refItem{pip.Dst, nd})
			}
		}
	}
	return math.Inf(1)
}

type refItem struct {
	node device.NodeID
	cost float64
}

type refQueue []refItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].cost < q[j].cost }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}
