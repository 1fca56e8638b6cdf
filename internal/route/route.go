// Package route implements a PathFinder-style negotiated-congestion router
// over the device routing graph: nets are routed by repeated A* searches,
// sharing is permitted at first and then negotiated away through rising
// present-sharing and history costs until every routing node has a single
// owner — the role PAR routing plays in the Xilinx flow. The first
// iteration routes every net; later ones rip up and reroute only the nets
// whose tree holds an overused node when their turn comes in the fixed net
// order (PathFinder's incremental reroute), so legal nets keep their routes.
//
// Clock nets are not routed through the fabric: each distinct clock net is
// assigned a global line and taps it at every sink's CLK pin, as on the real
// device.
//
// The inner loop is allocation-free in steady state: the per-device A*
// scratch (distance/visited/predecessor arrays, the frontier heap, the path
// buffers, the region node masks) lives in a sync.Pool keyed by graph size,
// visited state is epoch-stamped instead of cleared, and searches are
// bounded to a window around the net before falling back to the full graph.
package route

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/phys"
)

// PathFinder's schedule: at most maxIters iterations; presentFactor is the
// first iteration's present-sharing cost factor and historyFactor the
// history cost an overused node gains per extra user (see negotiate).
const (
	maxIters      = 48
	presentFactor = 0.6
	historyFactor = 0.35
)

// Options configures a routing run.
type Options struct {
	// RegionForNet optionally constrains nets to floorplan regions (see
	// region.go); return nil for unconstrained nets. Clock nets are always
	// unconstrained (they ride global lines).
	RegionForNet func(n *netlist.Net) *frames.Region
}

// Router metrics (always on; see internal/obs): PathFinder convergence and
// A* search volume, the counters behind the route stage's share of the
// paper's C3 "CAD time" claim.
var (
	mNets       = obs.GetCounter("route.nets")
	mIters      = obs.GetCounter("route.iterations")
	mSearches   = obs.GetCounter("route.searches")
	mRetries    = obs.GetCounter("route.search_retries")
	mHeapPushes = obs.GetCounter("route.heap_pushes")
	mReroutes   = obs.GetCounter("route.reroutes")
)

// RouteCtx routes every net of the placed design, filling d.Routes. On
// success the routes pass phys.(*Design).CheckRoutes. The context carries
// observability: each PathFinder iteration is a "route.iter" span carrying
// its overuse count and the number of nets it routed.
func RouteCtx(ctx context.Context, d *phys.Design, opts Options) error {
	r := newRouter(d, opts)
	if err := r.routeClocks(); err != nil {
		return err
	}
	r.s = getScratch(d.Part.NumNodes())
	defer func() {
		putScratch(r.s)
		r.s = nil
	}()
	if err := r.routeFabric(ctx); err != nil {
		return err
	}
	mSearches.Add(r.searches)
	mRetries.Add(r.retries)
	mHeapPushes.Add(r.pushes)
	mReroutes.Add(r.reroutes)
	return d.CheckRoutes()
}

type router struct {
	d    *phys.Design
	g    *device.Graph
	opts Options
	s    *scratch

	// Inner-loop counters, flushed to the obs registry once per run.
	searches, retries, pushes, reroutes int64
}

// newRouter returns a router over the placed design. The caller attaches
// the scratch.
func newRouter(d *phys.Design, opts Options) *router {
	return &router{d: d, g: device.NewGraph(d.Part), opts: opts}
}

// scratch is the reusable per-run router state, sized to one device graph.
// Runs borrow it from a pool so repeated routing (variant fan-out, cached
// flows, benchmarks) allocates nothing per net: occupancy and history are
// memclr'd once per run, while the A* visited state is epoch-stamped — a
// search bumps the epoch instead of touching N nodes. The epoch survives
// pool round-trips, so stale stamps can never alias a live search.
type scratch struct {
	n    int
	occ  []int32   // present usage per node
	hist []float64 // accumulated history cost per node

	dist    []float64
	prevPIP []device.PIP // arriving pip per node; Row == -1 marks a tree root
	seen    []int32
	epoch   int32

	pq   pipHeap
	tree []device.NodeID
	rev  []treeEdge

	// Region masks, one per distinct region routed this run; masks[nmasks:]
	// is spare storage from earlier runs.
	masks  []*regionMask
	nmasks int
}

var scratchPool sync.Pool

func getScratch(n int) *scratch {
	s, _ := scratchPool.Get().(*scratch)
	if s == nil || s.n != n {
		s = &scratch{
			n:       n,
			occ:     make([]int32, n),
			hist:    make([]float64, n),
			dist:    make([]float64, n),
			prevPIP: make([]device.PIP, n),
			seen:    make([]int32, n),
		}
	} else {
		clear(s.occ)
		clear(s.hist)
		s.nmasks = 0
	}
	return s
}

func putScratch(s *scratch) { scratchPool.Put(s) }

// nextEpoch invalidates all visited stamps in O(1). On (rare) wrap the
// stamps are cleared for real, keeping old epochs from aliasing new ones.
func (s *scratch) nextEpoch() int32 {
	if s.epoch == math.MaxInt32 {
		s.epoch = 0
		clear(s.seen)
	}
	s.epoch++
	return s.epoch
}

// routeClocks assigns distinct clock nets to global lines and taps them.
func (r *router) routeClocks() error {
	var clocks []*netlist.Net
	for _, n := range r.d.Netlist.SortedNets() {
		if n.IsClock && n.Driven() {
			clocks = append(clocks, n)
		}
	}
	if len(clocks) > device.NumGlobals {
		return fmt.Errorf("route: %d clock nets exceed %d global lines", len(clocks), device.NumGlobals)
	}
	for gi, n := range clocks {
		if n.Driver.Cell != nil {
			return fmt.Errorf("route: clock net %q driven by logic; gated clocks are unsupported", n.Name)
		}
		sinks, err := r.d.SinkNodes(n)
		if err != nil {
			return err
		}
		route := &phys.Route{Net: n, Global: gi}
		src := r.d.Part.GlobalNode(gi)
		for _, sink := range sinks {
			row, col, _, ok := r.d.Part.NodeTile(sink)
			if !ok {
				return fmt.Errorf("route: clock net %q sink %s is not a pin", n.Name, r.d.Part.NodeName(sink))
			}
			pip, ok := r.g.FindPIP(row, col, src, sink)
			if !ok {
				return fmt.Errorf("route: no global tap for %s", r.d.Part.NodeName(sink))
			}
			route.PIPs = append(route.PIPs, pip)
		}
		r.d.Routes[n] = route
	}
	return nil
}

// fabricNet is one net scheduled for PathFinder routing.
type fabricNet struct {
	net    *netlist.Net
	src    device.NodeID
	sinks  []device.NodeID
	region *regionMask // nil = unconstrained
	tree   []treeEdge  // current routing
}

type treeEdge struct {
	pip  device.PIP
	node device.NodeID // == pip.Dst
}

// collectNets gathers the fabric-routable nets in deterministic order:
// sorted netlist order, then high-fanout first (stable), so the negotiation
// schedule never depends on map iteration.
func (r *router) collectNets() ([]*fabricNet, error) {
	var nets []*fabricNet
	for _, net := range r.d.Netlist.SortedNets() {
		if net.IsClock || !net.Driven() {
			continue
		}
		sinks, err := r.d.SinkNodes(net)
		if err != nil {
			return nil, err
		}
		if len(sinks) == 0 {
			continue
		}
		src, err := r.d.SourceNode(net)
		if err != nil {
			return nil, err
		}
		fn := &fabricNet{net: net, src: src, sinks: sinks}
		if r.opts.RegionForNet != nil {
			fn.region = r.maskFor(r.opts.RegionForNet(net))
		}
		nets = append(nets, fn)
	}
	// High-fanout first: they negotiate the scarce resources.
	sort.SliceStable(nets, func(i, j int) bool { return len(nets[i].sinks) > len(nets[j].sinks) })
	return nets, nil
}

func (r *router) routeFabric(ctx context.Context) error {
	nets, err := r.collectNets()
	if err != nil {
		return err
	}
	mNets.Add(int64(len(nets)))

	presentFac := presentFactor
	for iter := 0; iter < maxIters; iter++ {
		_, sp := obs.Start(ctx, "route.iter")
		sp.SetInt("iter", int64(iter))
		rerouted := 0
		for _, fn := range nets {
			routed, err := r.turn(fn, iter, presentFac)
			if err != nil {
				sp.EndErr(err)
				return fmt.Errorf("route: iteration %d: %w", iter, err)
			}
			if routed {
				rerouted++
			}
		}
		if iter > 0 {
			r.reroutes += int64(rerouted)
		}
		over := r.overusedNodes()
		sp.SetInt("overused", int64(over))
		sp.SetInt("rerouted", int64(rerouted))
		sp.EndErr(nil)
		mIters.Inc()
		if over == 0 {
			r.commit(nets)
			return nil
		}
		presentFac = r.negotiate(presentFac)
	}
	return fmt.Errorf("route: congestion unresolved after %d iterations (%d overused nodes)",
		maxIters, r.overusedNodes())
}

// turn is one net's turn in a PathFinder iteration, in the fixed net
// order. Iteration 0 routes every net; later iterations rip up and reroute
// a net only when its tree holds an overused node at that moment, so legal
// nets keep their trees and the searches go where the congestion is. It
// reports whether the net was routed.
func (r *router) turn(fn *fabricNet, iter int, presentFac float64) (bool, error) {
	if iter > 0 && !r.congested(fn) {
		return false, nil
	}
	r.ripUp(fn)
	return true, r.routeNet(fn, presentFac)
}

// congested reports whether fn's tree shares a node with another net.
func (r *router) congested(fn *fabricNet) bool {
	for _, te := range fn.tree {
		if r.s.occ[te.node] > 1 {
			return true
		}
	}
	return false
}

// negotiate ends an iteration that left congestion: history cost
// accumulates on every overused node, and the returned present-sharing
// factor for the next iteration is sharper.
func (r *router) negotiate(presentFac float64) float64 {
	for i, u := range r.s.occ {
		if u > 1 {
			r.s.hist[i] += historyFactor * float64(u-1)
		}
	}
	return presentFac * 1.7
}

func (r *router) overusedNodes() int {
	over := 0
	for _, u := range r.s.occ {
		if u > 1 {
			over++
		}
	}
	return over
}

func (r *router) ripUp(fn *fabricNet) {
	for _, te := range fn.tree {
		r.s.occ[te.node]--
	}
	fn.tree = fn.tree[:0]
}

// commit writes final routes into the design.
func (r *router) commit(nets []*fabricNet) {
	for _, fn := range nets {
		route := &phys.Route{Net: fn.net, Global: -1}
		for _, te := range fn.tree {
			route.PIPs = append(route.PIPs, te.pip)
		}
		r.d.Routes[fn.net] = route
	}
}

// nodeCost is the congestion-aware cost of claiming a node.
func (r *router) nodeCost(node device.NodeID, presentFac float64) float64 {
	base := 1.0 + r.s.hist[node]
	sharing := float64(r.s.occ[node]) // claims already held by others
	return base * (1 + presentFac*sharing)
}

// routeNet routes all sinks of one net, growing a tree.
func (r *router) routeNet(fn *fabricNet, presentFac float64) error {
	treeNodes := append(r.s.tree[:0], fn.src)
	for _, sink := range fn.sinks {
		path, err := r.search(treeNodes, sink, presentFac, fn.region)
		if err != nil {
			return fmt.Errorf("net %q to %s: %w", fn.net.Name, r.d.Part.NodeName(sink), err)
		}
		for _, te := range path {
			fn.tree = append(fn.tree, te)
			r.s.occ[te.node]++
			treeNodes = append(treeNodes, te.node)
		}
	}
	r.s.tree = treeNodes[:0]
	return nil
}

// treeRootPIP marks tree roots in prevPIP.
var treeRootPIP = device.PIP{Row: -1}

// errNoPath reports a starved search. A sentinel, not fmt.Errorf: bounded
// searches fail routinely (the unbounded retry absorbs them) and the hot
// loop must not allocate for an expected outcome.
var errNoPath = errors.New("no path")

// searchMargin expands the A* window (in tiles) beyond the bounding box of
// the source tree and the target. Optimal detours under congestion stay
// local; anything the window cannot reach is caught by the unbounded retry.
const searchMargin = 3

// search finds a cheapest path from any tree node to the target using A*,
// returning the new edges in source-to-sink order. The first attempt
// restricts expansion to a window around the net (plus every off-fabric
// node: globals, long lines, pads); if the window starves it retries over
// the whole graph so completeness is never lost.
func (r *router) search(tree []device.NodeID, target device.NodeID, presentFac float64, region *regionMask) ([]treeEdge, error) {
	r.searches++
	path, err := r.searchWindow(tree, target, presentFac, region, true)
	if err == nil {
		return path, nil
	}
	r.retries++
	return r.searchWindow(tree, target, presentFac, region, false)
}

func (r *router) searchWindow(tree []device.NodeID, target device.NodeID, presentFac float64, region *regionMask, bounded bool) ([]treeEdge, error) {
	part := r.d.Part
	s := r.s
	epoch := s.nextEpoch()
	tRow, tCol, _, tIsTile := part.NodeTile(target)

	// The search window: tree ∪ target bounding box, expanded by the margin.
	// Off-fabric nodes carry no tile and are always admitted.
	minR, maxR, minC, maxC := 0, 0, 0, 0
	bounded = bounded && tIsTile
	if bounded {
		minR, maxR, minC, maxC = tRow, tRow, tCol, tCol
		for _, n := range tree {
			if row, col, _, ok := part.NodeTile(n); ok {
				minR, maxR = min(minR, row), max(maxR, row)
				minC, maxC = min(minC, col), max(maxC, col)
			}
		}
		minR, maxR = minR-searchMargin, maxR+searchMargin
		minC, maxC = minC-searchMargin, maxC+searchMargin
	}

	h := func(n device.NodeID) float64 {
		if !tIsTile {
			return 0
		}
		row, col, _, ok := part.NodeTile(n)
		if !ok {
			return 0
		}
		d := abs(row-tRow) + abs(col-tCol)
		return float64(d) / 6.0 // hex wires cover 6 tiles per node: keep admissible
	}

	pq := &s.pq
	pq.reset()
	for _, n := range tree {
		s.dist[n] = 0
		s.prevPIP[n] = treeRootPIP
		s.seen[n] = epoch
		pq.push(pqItem{node: n, prio: h(n)})
	}
	pushes := int64(len(tree))
	for pq.len() > 0 {
		cur := pq.pop()
		if cur.node == target {
			r.pushes += pushes
			return r.unwind(target), nil
		}
		if cur.cost > s.dist[cur.node] {
			continue // stale entry
		}
		for _, pip := range r.g.From(cur.node) {
			if region != nil && !region.allows(pip) {
				continue
			}
			if bounded {
				if row, col, _, ok := part.NodeTile(pip.Dst); ok &&
					(row < minR || row > maxR || col < minC || col > maxC) {
					continue
				}
			}
			nd := cur.cost + r.nodeCost(pip.Dst, presentFac)
			if s.seen[pip.Dst] == epoch && nd >= s.dist[pip.Dst] {
				continue
			}
			s.seen[pip.Dst] = epoch
			s.dist[pip.Dst] = nd
			s.prevPIP[pip.Dst] = pip
			pq.push(pqItem{node: pip.Dst, cost: nd, prio: nd + h(pip.Dst)})
			pushes++
		}
	}
	r.pushes += pushes
	return nil, errNoPath
}

// unwind reconstructs the path, stopping at a tree root. The returned slice
// aliases the scratch path buffer; it is only valid until the next search.
func (r *router) unwind(target device.NodeID) []treeEdge {
	rev := r.s.rev[:0]
	node := target
	for {
		pip := r.s.prevPIP[node]
		if pip.Row < 0 {
			break
		}
		rev = append(rev, treeEdge{pip: pip, node: node})
		node = pip.Src
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	r.s.rev = rev
	return rev
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// pqItem is an A* frontier entry.
type pqItem struct {
	node device.NodeID
	cost float64 // g-cost at push time
	prio float64 // g + h
}

// pipHeap is a plain 4-ary min-heap on prio. The stdlib container/heap
// interface costs an allocation per push via the interface boundary, and a
// binary heap's pop walks twice the depth with one compare per level; with
// lazy deletion the A* loop is pop-dominated, so the wide shallow heap (four
// siblings share a cache line's worth of entries) is measurably faster.
type pipHeap struct {
	items []pqItem
}

func (h *pipHeap) len() int { return len(h.items) }

func (h *pipHeap) reset() { h.items = h.items[:0] }

func (h *pipHeap) push(it pqItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if h.items[parent].prio <= h.items[i].prio {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *pipHeap) pop() pqItem {
	top := h.items[0]
	last := len(h.items) - 1
	it := h.items[last]
	h.items = h.items[:last]
	if last == 0 {
		return top
	}
	// Sift the former tail down from the root.
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		end := first + 4
		if end > last {
			end = last
		}
		smallest, sp := first, h.items[first].prio
		for c := first + 1; c < end; c++ {
			if p := h.items[c].prio; p < sp {
				smallest, sp = c, p
			}
		}
		if it.prio <= sp {
			break
		}
		h.items[i] = h.items[smallest]
		i = smallest
	}
	h.items[i] = it
	return top
}
