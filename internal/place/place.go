package place

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/ucf"
)

// Options configures a placement run.
type Options struct {
	// Seed drives every random choice; equal seeds give equal placements.
	Seed int64
	// Constraints carries the UCF floorplan (may be nil).
	Constraints *ucf.Constraints
	// Effort scales annealing iterations; 1.0 is the default, smaller is
	// faster and sloppier.
	Effort float64
	// Guide seeds initial positions from a previous implementation (cell
	// name -> site), the role of the Xilinx flow's guide files: re-placing
	// a revised design starts from the old placement instead of randomness,
	// so low-effort incremental runs converge to comparable quality.
	Guide map[string]phys.Site
	// Workers is ignored: placement is one annealing start on the calling
	// goroutine. It remains only for callers that still set it.
	Workers int
}

// Placement metrics (always on; see internal/obs): annealing inner-loop
// volume, the counters behind the paper's C3 "CAD time" claim at the
// placement stage.
var (
	mMoves    = obs.GetCounter("place.moves_proposed")
	mAccepted = obs.GetCounter("place.moves_accepted")
	mRecomps  = obs.GetCounter("place.bbox_recomputes")
)

// PlaceCtx packs and places the netlist on the part, returning a physical
// design with Cells and Ports assigned (Routes left for the router). The
// placement is a function of the netlist, constraints, guide, effort and
// seed alone.
func PlaceCtx(_ context.Context, p *device.Part, nl *netlist.Design, opts Options) (*phys.Design, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	if opts.Effort <= 0 {
		opts.Effort = 1.0
	}
	cons := opts.Constraints
	if cons != nil {
		if err := cons.Validate(p); err != nil {
			return nil, err
		}
	}
	les, err := pack(nl, cons)
	if err != nil {
		return nil, err
	}
	pl := newPlacer(p, nl, les, cons, opts.Guide, opts.Seed)
	if err := pl.run(opts.Effort); err != nil {
		return nil, err
	}
	return pl.design()
}

// lePin is one logic element's connection to a tracked net: the net's index
// and how many member cells of the LE pin into it.
type lePin struct {
	net  int32
	mult int32
}

// netBB is a net's bounding box over its placed pins plus the number of pins
// lying exactly on each boundary. Moves update it incrementally: growing is
// O(1); shrinking decrements the boundary count and only rescans the net's
// pins when the count hits zero — the classic incremental-HPWL bookkeeping
// (cf. VPR), which turns the anneal loop's per-move cost from O(pins of all
// affected nets) map-walking into a handful of integer compares.
type netBB struct {
	minR, maxR, minC, maxC     int32
	nMinR, nMaxR, nMinC, nMaxC int32
}

func (b *netBB) hpwl() int64 {
	return int64(b.maxR-b.minR) + int64(b.maxC-b.minC)
}

// savedBB is one net's bounding box as it was before a trial move.
type savedBB struct {
	net int32
	bb  netBB
}

type placer struct {
	part  *device.Part
	nl    *netlist.Design
	les   []*le
	cons  *ucf.Constraints
	guide map[string]phys.Site
	rng   *rand.Rand

	region []frames.Region // allowed region per LE
	siteOf []phys.Site
	occ    []int32 // site index -> LE index, -1 free
	padOf  map[*netlist.Port]device.Pad

	cellLE map[*netlist.Cell]int

	// Incremental cost model (built once the initial placement exists).
	nets    []*netlist.Net // tracked nets (non-clock, driven, >= 1 pin)
	lePins  [][]lePin      // per LE: tracked nets it pins into
	netLEs  [][]int32      // per net: member LE indices (with multiplicity)
	netPads [][]phys.Site  // per net: static pad tiles (Row/Col only)
	bb      []netBB
	cost    int64 // total HPWL over tracked nets

	// saved holds the boxes a trial move may change, taken before it is
	// applied so that undo can put them back (see tryMove). It is reused
	// from move to move.
	saved []savedBB

	// window is the range limiter's radius in tiles (see propose).
	window int

	// Inner-loop counters, flushed to the obs registry once per run.
	moves, accepted, recomputes int64
}

func newPlacer(p *device.Part, nl *netlist.Design, les []*le, cons *ucf.Constraints,
	guide map[string]phys.Site, seed int64) *placer {
	return &placer{
		part:  p,
		nl:    nl,
		les:   les,
		cons:  cons,
		guide: guide,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// run places the packed LEs and anneals the placement.
func (pl *placer) run(effort float64) error {
	if err := pl.prepare(); err != nil {
		return err
	}
	pl.anneal(effort)
	mMoves.Add(pl.moves)
	mAccepted.Add(pl.accepted)
	mRecomps.Add(pl.recomputes)
	return nil
}

// prepare assigns pads, resolves regions, seeds the initial placement and
// builds the incremental cost model: everything annealing starts from.
func (pl *placer) prepare() error {
	if err := pl.assignPads(); err != nil {
		return err
	}
	if err := pl.regions(); err != nil {
		return err
	}
	if err := pl.initial(); err != nil {
		return err
	}
	pl.buildCostModel()
	return nil
}

// design renders the placement as a physical design.
func (pl *placer) design() (*phys.Design, error) {
	d := phys.NewDesign(pl.part, pl.nl)
	for i, e := range pl.les {
		site := pl.siteOf[i]
		for _, c := range e.cells() {
			d.Cells[c] = site
		}
	}
	for _, port := range pl.nl.Ports {
		d.Ports[port] = pl.padOf[port]
	}
	if err := d.CheckPlacement(); err != nil {
		return nil, fmt.Errorf("place: internal error: %w", err)
	}
	return d, nil
}

// siteIdx flattens a site into the occupancy array.
func (pl *placer) siteIdx(s phys.Site) int {
	return ((s.Row*pl.part.Cols+s.Col)*2+s.Slice)*2 + s.LE
}

// assignPads binds ports to pads: UCF NET LOCs first, then unconstrained
// ports round-robin over remaining pads.
func (pl *placer) assignPads() error {
	pl.padOf = map[*netlist.Port]device.Pad{}
	used := map[device.Pad]bool{}
	for _, port := range pl.nl.Ports {
		loc := port.Pad
		if loc == "" && pl.cons != nil {
			loc = pl.cons.NetLocs[port.Name]
		}
		if loc == "" {
			continue
		}
		pd, err := device.ParsePad(loc)
		if err != nil {
			return fmt.Errorf("place: port %q: %w", port.Name, err)
		}
		if !pl.part.ValidPad(pd) {
			return fmt.Errorf("place: port %q LOC %q not on %s", port.Name, loc, pl.part.Name)
		}
		if used[pd] {
			return fmt.Errorf("place: pad %s assigned twice", pd.Name())
		}
		used[pd] = true
		pl.padOf[port] = pd
	}
	next := 0
	for _, port := range pl.nl.Ports {
		if _, done := pl.padOf[port]; done {
			continue
		}
		for ; next < pl.part.NumPads(); next++ {
			pd := padAt(pl.part, next)
			if !used[pd] {
				used[pd] = true
				pl.padOf[port] = pd
				next++
				break
			}
		}
		if _, done := pl.padOf[port]; !done {
			return fmt.Errorf("place: out of pads for %d ports on %s", len(pl.nl.Ports), pl.part.Name)
		}
	}
	return nil
}

// padAt enumerates pads interleaved across edges so auto-assigned ports
// spread around the perimeter.
func padAt(p *device.Part, i int) device.Pad {
	edges := []int{device.EdgeL, device.EdgeT, device.EdgeR, device.EdgeB}
	e := edges[i%4]
	k := i / 4
	limit := p.Rows
	if e == device.EdgeT || e == device.EdgeB {
		limit = p.Cols
	}
	return device.Pad{Edge: e, Index: k % limit}
}

// regions resolves the allowed region of every LE and checks capacity.
func (pl *placer) regions() error {
	full := frames.FullRegion(pl.part)
	pl.region = make([]frames.Region, len(pl.les))
	demand := map[frames.Region]int{}
	for i, e := range pl.les {
		rg := full
		if pl.cons != nil {
			if r, ok := pl.cons.RegionFor(e.name()); ok {
				rg = r
			}
		}
		if e.fixed && !rg.Contains(e.fixedLoc.Row, e.fixedLoc.Col) {
			return fmt.Errorf("place: LE %q LOC %v outside its AREA_GROUP range %v",
				e.name(), e.fixedLoc, rg)
		}
		pl.region[i] = rg
		demand[rg]++
	}
	for rg, n := range demand {
		if cap := rg.CLBs() * 4; n > cap {
			return fmt.Errorf("place: region %v holds %d LEs but needs %d", rg, cap, n)
		}
	}
	return nil
}

// initial seeds the starting placement: fixed LOCs first, then guide
// positions, then random legal sites for whatever remains.
func (pl *placer) initial() error {
	pl.siteOf = make([]phys.Site, len(pl.les))
	pl.occ = make([]int32, pl.part.Rows*pl.part.Cols*4)
	for i := range pl.occ {
		pl.occ[i] = -1
	}
	placed := make([]bool, len(pl.les))
	for i, e := range pl.les {
		if !e.fixed {
			continue
		}
		for leIdx := 0; leIdx < 2 && !placed[i]; leIdx++ {
			s := phys.Site{Row: e.fixedLoc.Row, Col: e.fixedLoc.Col, Slice: e.fixedLoc.Slice, LE: leIdx}
			if pl.legalAt(i, s) {
				pl.put(i, s)
				placed[i] = true
			}
		}
		if !placed[i] {
			return fmt.Errorf("place: cannot honour LOC %v for %q", pl.les[i].fixedLoc, e.name())
		}
	}
	// Guided LEs take their previous sites when still legal.
	if pl.guide != nil {
		for i, e := range pl.les {
			if placed[i] {
				continue
			}
			if s, ok := pl.guideSite(e); ok && pl.legalAt(i, s) {
				pl.put(i, s)
				placed[i] = true
			}
		}
	}
	for i, e := range pl.les {
		if placed[i] {
			continue
		}
		s, ok := pl.randomFreeSite(i)
		if !ok {
			return fmt.Errorf("place: no free site for %q in %v", e.name(), pl.region[i])
		}
		pl.put(i, s)
		placed[i] = true
	}
	return nil
}

// buildCostModel precomputes the per-net pin lists and bounding boxes the
// incremental HPWL bookkeeping works on. Tracked nets are exactly the ones
// the cost function always covered: non-clock, driven. Pin positions are LE
// sites (updated by moves) plus static pad tiles.
func (pl *placer) buildCostModel() {
	pl.cellLE = leOf(pl.les)
	pl.lePins = make([][]lePin, len(pl.les))
	for _, n := range pl.nl.Nets {
		if n.IsClock || !n.Driven() {
			continue
		}
		k := int32(len(pl.nets))
		var leIdx []int32
		forEachNetCell(n, func(c *netlist.Cell) {
			if idx, ok := pl.cellLE[c]; ok {
				leIdx = append(leIdx, int32(idx))
			}
		})
		var pads []phys.Site
		if n.DriverPort != nil {
			r, c := pl.part.PadTile(pl.padOf[n.DriverPort])
			pads = append(pads, phys.Site{Row: r, Col: c})
		}
		for _, p := range n.SinkPorts {
			r, c := pl.part.PadTile(pl.padOf[p])
			pads = append(pads, phys.Site{Row: r, Col: c})
		}
		if len(leIdx) == 0 && len(pads) == 0 {
			continue
		}
		pl.nets = append(pl.nets, n)
		pl.netLEs = append(pl.netLEs, leIdx)
		pl.netPads = append(pl.netPads, pads)
		// Per-LE pin multiplicities (an LE may carry several cells of one
		// net; its move then moves that many pins).
		for _, idx := range leIdx {
			pins := pl.lePins[idx]
			found := false
			for pi := range pins {
				if pins[pi].net == k {
					pins[pi].mult++
					found = true
					break
				}
			}
			if !found {
				pl.lePins[idx] = append(pins, lePin{net: k, mult: 1})
			}
		}
	}
	pl.bb = make([]netBB, len(pl.nets))
	pl.cost = 0
	for k := range pl.nets {
		pl.recomputeBB(k)
		pl.cost += pl.bb[k].hpwl()
	}
}

func forEachNetCell(n *netlist.Net, f func(*netlist.Cell)) {
	if n.Driver.Cell != nil {
		f(n.Driver.Cell)
	}
	for _, s := range n.Sinks {
		f(s.Cell)
	}
}

// recomputeBB rebuilds one net's bounding box and boundary counts from its
// current pin positions.
func (pl *placer) recomputeBB(k int) {
	b := &pl.bb[k]
	*b = netBB{minR: math.MaxInt32, maxR: -1, minC: math.MaxInt32, maxC: -1}
	for _, s := range pl.netPads[k] {
		addDim(&b.minR, &b.maxR, &b.nMinR, &b.nMaxR, int32(s.Row), 1)
		addDim(&b.minC, &b.maxC, &b.nMinC, &b.nMaxC, int32(s.Col), 1)
	}
	for _, idx := range pl.netLEs[k] {
		s := pl.siteOf[idx]
		addDim(&b.minR, &b.maxR, &b.nMinR, &b.nMaxR, int32(s.Row), 1)
		addDim(&b.minC, &b.maxC, &b.nMinC, &b.nMaxC, int32(s.Col), 1)
	}
}

// addDim folds one pin coordinate into one dimension of a bounding box.
func addDim(min, max, nMin, nMax *int32, v, mult int32) {
	switch {
	case v < *min:
		*min, *nMin = v, mult
	case v == *min:
		*nMin += mult
	}
	switch {
	case v > *max:
		*max, *nMax = v, mult
	case v == *max:
		*nMax += mult
	}
}

// removeDim retracts one pin coordinate from one dimension; it reports
// whether a boundary lost its last pin, requiring a full rescan.
func removeDim(min, max, nMin, nMax *int32, v int32) bool {
	rescan := false
	if v == *min {
		*nMin--
		rescan = rescan || *nMin == 0
	}
	if v == *max {
		*nMax--
		rescan = rescan || *nMax == 0
	}
	return rescan
}

// movePin updates net k's bounding box for one LE pin moving between tiles.
// New coordinates are folded in before old ones are retracted, so a shrink is
// detected only when the boundary truly empties.
func (pl *placer) movePin(k int32, from, to phys.Site, mult int32) {
	b := &pl.bb[k]
	addDim(&b.minR, &b.maxR, &b.nMinR, &b.nMaxR, int32(to.Row), mult)
	addDim(&b.minC, &b.maxC, &b.nMinC, &b.nMaxC, int32(to.Col), mult)
	rescan := false
	for m := int32(0); m < mult; m++ {
		rescan = removeDim(&b.minR, &b.maxR, &b.nMinR, &b.nMaxR, int32(from.Row)) || rescan
		rescan = removeDim(&b.minC, &b.maxC, &b.nMinC, &b.nMaxC, int32(from.Col)) || rescan
	}
	if rescan {
		pl.recomputes++
		pl.recomputeBB(int(k))
	}
}

// moveLE relocates LE i, maintaining occupancy, positions, every touched
// net's bounding box, and the total cost.
func (pl *placer) moveLE(i int, to phys.Site) {
	from := pl.siteOf[i]
	if fi := pl.siteIdx(from); pl.occ[fi] == int32(i) {
		pl.occ[fi] = -1
	}
	pl.occ[pl.siteIdx(to)] = int32(i)
	pl.siteOf[i] = to
	if from.Row == to.Row && from.Col == to.Col {
		return // same tile: HPWL cannot change
	}
	for _, pin := range pl.lePins[i] {
		b := &pl.bb[pin.net]
		old := b.hpwl()
		pl.movePin(pin.net, from, to, pin.mult)
		pl.cost += pl.bb[pin.net].hpwl() - old
	}
}

func (pl *placer) put(i int, s phys.Site) {
	pl.occ[pl.siteIdx(s)] = int32(i)
	pl.siteOf[i] = s
}

// legalAt reports whether LE i may occupy site s (region, occupancy, and
// slice clock compatibility).
func (pl *placer) legalAt(i int, s phys.Site) bool {
	if pl.occ[pl.siteIdx(s)] >= 0 {
		return false
	}
	if !pl.region[i].Contains(s.Row, s.Col) {
		return false
	}
	e := pl.les[i]
	if e.fixed && (e.fixedLoc.Row != s.Row || e.fixedLoc.Col != s.Col || e.fixedLoc.Slice != s.Slice) {
		return false
	}
	// The two FFs of one slice share CLK/CE/SR pins.
	if e.ff != nil {
		other := phys.Site{Row: s.Row, Col: s.Col, Slice: s.Slice, LE: 1 - s.LE}
		if oi := pl.occ[pl.siteIdx(other)]; oi >= 0 {
			of := pl.les[oi].ff
			if of != nil && !sameCtl(e.ff, of) {
				return false
			}
		}
	}
	return true
}

func sameCtl(a, b *netlist.Cell) bool {
	return a.Clock == b.Clock && a.CE == b.CE && a.Reset == b.Reset
}

func (pl *placer) randomFreeSite(i int) (phys.Site, bool) {
	rg := pl.region[i]
	for try := 0; try < 200; try++ {
		s := phys.Site{
			Row:   rg.R1 + pl.rng.Intn(rg.Rows()),
			Col:   rg.C1 + pl.rng.Intn(rg.Cols()),
			Slice: pl.rng.Intn(2),
			LE:    pl.rng.Intn(2),
		}
		if pl.legalAt(i, s) {
			return s, true
		}
	}
	// Dense region: scan exhaustively.
	for r := rg.R1; r <= rg.R2; r++ {
		for c := rg.C1; c <= rg.C2; c++ {
			for sl := 0; sl < 2; sl++ {
				for leIdx := 0; leIdx < 2; leIdx++ {
					s := phys.Site{Row: r, Col: c, Slice: sl, LE: leIdx}
					if pl.legalAt(i, s) {
						return s, true
					}
				}
			}
		}
	}
	return phys.Site{}, false
}

// netHPWL computes a net's half-perimeter wirelength from scratch — the
// reference the incremental bookkeeping is validated against (see
// totalCost), no longer the anneal loop's inner cost function.
func (pl *placer) netHPWL(n *netlist.Net) float64 {
	minR, minC := math.MaxInt32, math.MaxInt32
	maxR, maxC := -1, -1
	add := func(r, c int) {
		minR, minC = min(minR, r), min(minC, c)
		maxR, maxC = max(maxR, r), max(maxC, c)
	}
	forEachNetCell(n, func(c *netlist.Cell) {
		if idx, ok := pl.cellLE[c]; ok {
			s := pl.siteOf[idx]
			add(s.Row, s.Col)
		}
	})
	if n.DriverPort != nil {
		r, c := pl.part.PadTile(pl.padOf[n.DriverPort])
		add(r, c)
	}
	for _, p := range n.SinkPorts {
		r, c := pl.part.PadTile(pl.padOf[p])
		add(r, c)
	}
	if maxR < 0 {
		return 0
	}
	return float64(maxR-minR) + float64(maxC-minC)
}

func (pl *placer) totalCost() float64 {
	cost := 0.0
	for _, n := range pl.nets {
		cost += pl.netHPWL(n)
	}
	return cost
}

// Annealing schedule. Each temperature proposes effort·max(movesFloor,
// movesPerLE·N) moves over N movable LEs. The range limiter (Betz & Rose,
// FPL 1997) scales the move window by 1 − targetAccept + a after each
// temperature, a being that temperature's acceptance ratio, so the window
// shrinks until about targetAccept of the proposals land; cooling is ×0.9,
// or ×0.8 once a falls below fastCoolBelow.
const (
	movesFloor    = 32
	movesPerLE    = 12
	targetAccept  = 0.44
	fastCoolBelow = 0.15
)

// anneal runs the simulated-annealing loop.
func (pl *placer) anneal(effort float64) {
	movable, longest := pl.movable()
	if len(movable) == 0 {
		return
	}
	pl.window = longest
	// Estimate the cost scale with probing moves (always reverted, so a
	// guided starting placement survives the calibration).
	var deltas []float64
	for t := 0; t < 50; t++ {
		if d, ok := pl.tryMove(movable, measureOnly); ok {
			deltas = append(deltas, math.Abs(d))
		}
	}
	temp := 1.0
	if len(deltas) > 0 {
		sum := 0.0
		for _, d := range deltas {
			sum += d
		}
		temp = 2*sum/float64(len(deltas)) + 1
	}
	// Low effort means incremental refinement (e.g. guided re-placement):
	// start nearly greedy instead of scrambling the seed at high
	// temperature. Such a start also keeps the whole-region window: a
	// one-tile window accepts every zero-cost local move, and those walk a
	// guided placement away from its guide.
	limit := true
	if effort < 1 {
		temp = temp*effort + 0.01
		limit = false
	}
	movesPerT := int(effort * float64(max(movesFloor, movesPerLE*len(movable))))
	rlim := float64(longest)
	for temp > 0.05 {
		accepted := 0
		for m := 0; m < movesPerT; m++ {
			if _, ok := pl.tryMove(movable, temp); ok {
				accepted++
			}
		}
		if accepted == 0 && temp < 1 {
			break
		}
		a := float64(accepted) / float64(movesPerT)
		if limit {
			rlim = min(max(rlim*(1-targetAccept+a), 1), float64(longest))
			pl.window = int(rlim)
		}
		if a < fastCoolBelow {
			temp *= 0.8
		} else {
			temp *= 0.9
		}
	}
	// Greedy clean-up pass.
	for m := 0; m < movesPerT; m++ {
		pl.tryMove(movable, 0)
	}
}

// movable lists the LEs annealing may move, and the longest side of their
// regions: the window radius at which every move may reach its whole region.
func (pl *placer) movable() (movable []int, longest int) {
	longest = 1
	for i, e := range pl.les {
		if !e.fixed {
			movable = append(movable, i)
			longest = max(longest, pl.region[i].Rows(), pl.region[i].Cols())
		}
	}
	return movable, longest
}

// measureOnly makes tryMove compute and report a proposal's delta without
// keeping it, for temperature calibration.
const measureOnly = -1.0

// propose draws a target site for LE i: a row and a column within
// pl.window tiles of its current tile, clipped to its region, then a Slice
// and an LE. It makes the same four draws whatever the window, so a
// placement stays a function of the seed alone.
func (pl *placer) propose(i int) phys.Site {
	rg, at, w := pl.region[i], pl.siteOf[i], pl.window
	r1, r2 := max(rg.R1, at.Row-w), min(rg.R2, at.Row+w)
	c1, c2 := max(rg.C1, at.Col-w), min(rg.C2, at.Col+w)
	return phys.Site{
		Row:   r1 + pl.rng.Intn(r2-r1+1),
		Col:   c1 + pl.rng.Intn(c2-c1+1),
		Slice: pl.rng.Intn(2),
		LE:    pl.rng.Intn(2),
	}
}

// tryMove proposes one displacement or swap at temperature temp and keeps it
// per the Metropolis criterion. It returns the kept move's delta; a
// measureOnly probe reports its delta and keeps nothing.
//
// The cost delta falls out of the incremental bounding-box update: save the
// boxes of every net the moving LEs pin into, apply the move and read the
// maintained total. A rejected move, and every measureOnly probe, is undone
// from that snapshot rather than by applying the move backwards, which
// would rerun the bookkeeping and its boundary rescans. A box is a function
// of its pins' positions alone, so the restored state is exactly the one
// the move started from. HPWL is integer arithmetic throughout, so the
// delta is exact — identical to a rescan of every affected net.
func (pl *placer) tryMove(movable []int, temp float64) (float64, bool) {
	i := movable[pl.rng.Intn(len(movable))]
	target := pl.propose(i)
	pl.moves++
	from := pl.siteOf[i]
	if target == from {
		return 0, false
	}
	ji := pl.occ[pl.siteIdx(target)]
	j, swap := int(ji), ji >= 0
	if swap {
		if pl.les[j].fixed {
			return 0, false
		}
		// The partner must be allowed at our site; the target lies in our
		// region by construction.
		if !pl.region[j].Contains(from.Row, from.Col) {
			return 0, false
		}
		if !pl.slicePairOK(i, target, j) || !pl.slicePairOK(j, from, i) {
			return 0, false
		}
	} else if !pl.legalAt(i, target) {
		return 0, false
	}

	before := pl.cost
	pl.saved = pl.saved[:0]
	pl.save(i)
	if swap {
		pl.save(j)
	}
	pl.apply(i, target, j, from, swap)
	delta := float64(pl.cost - before)
	if temp == measureOnly {
		pl.undo(i, from, target, ji, before)
		return delta, true
	}
	if delta <= 0 || (temp > 0 && pl.rng.Float64() < math.Exp(-delta/temp)) {
		pl.accepted++
		return delta, true
	}
	pl.undo(i, from, target, ji, before)
	return 0, false
}

// save appends the boxes of the nets LE i pins into to pl.saved.
func (pl *placer) save(i int) {
	for _, pin := range pl.lePins[i] {
		pl.saved = append(pl.saved, savedBB{pin.net, pl.bb[pin.net]})
	}
}

// undo returns the placer to its state before LE i moved from from to
// target, swapping with LE ji (-1 for a displacement). It puts the saved
// boxes back in reverse order, so a net that both LEs of a swap pin into
// ends with the copy saved first, then restores cost, positions and
// occupancy.
func (pl *placer) undo(i int, from, target phys.Site, ji int32, cost int64) {
	for k := len(pl.saved) - 1; k >= 0; k-- {
		pl.bb[pl.saved[k].net] = pl.saved[k].bb
	}
	pl.cost = cost
	pl.siteOf[i] = from
	pl.occ[pl.siteIdx(from)] = int32(i)
	pl.occ[pl.siteIdx(target)] = ji
	if ji >= 0 {
		pl.siteOf[ji] = target
	}
}

// slicePairOK checks FF control compatibility for LE i landing at site s,
// ignoring LE j (its swap partner).
func (pl *placer) slicePairOK(i int, s phys.Site, j int) bool {
	e := pl.les[i]
	if e.ff == nil {
		return true
	}
	other := phys.Site{Row: s.Row, Col: s.Col, Slice: s.Slice, LE: 1 - s.LE}
	oi := pl.occ[pl.siteIdx(other)]
	if oi < 0 || int(oi) == j {
		return true
	}
	of := pl.les[oi].ff
	return of == nil || sameCtl(e.ff, of)
}

// apply moves LE i to si and, for swaps, LE j to sj. LEs move one at a time
// — occupancy, position and bounding boxes stay mutually consistent at every
// step, so a rescan triggered mid-swap sees a coherent placement.
func (pl *placer) apply(i int, si phys.Site, j int, sj phys.Site, swap bool) {
	pl.moveLE(i, si)
	if swap {
		pl.moveLE(j, sj)
	}
}

// guideSite resolves an LE's guide position: every member cell present in
// the guide must agree on the site.
func (pl *placer) guideSite(e *le) (phys.Site, bool) {
	var site phys.Site
	found := false
	for _, c := range e.cells() {
		s, ok := pl.guide[c.Name]
		if !ok {
			continue
		}
		if found && s != site {
			return phys.Site{}, false
		}
		site, found = s, true
	}
	return site, found && site.Valid(pl.part)
}
