package route

import (
	"fmt"

	"repro/internal/phys"
)

// Benchmark surface. The PathFinder inner loop works on unexported router
// state, so the repository-level benchmarks and the allocation-regression
// tests drive it through this narrow exported hook. Not intended for
// production callers.

// NetBencher reroutes single nets of a placed design — one rip-up plus one
// tree of A* searches per Step, the unit of work PathFinder iterates.
type NetBencher struct {
	r    *router
	nets []*fabricNet
	idx  int
}

// NewNetBencher prepares a router over the placed design with default
// options and routes every net once, so Steps measure steady-state rerouting
// (warm scratch, stable tree capacities). Call Close when done to return the
// scratch to the pool.
func NewNetBencher(d *phys.Design) (*NetBencher, error) {
	r := newRouter(d, Options{})
	r.s = getScratch(d.Part.NumNodes())
	nets, err := r.collectNets()
	if err != nil {
		putScratch(r.s)
		return nil, err
	}
	if len(nets) == 0 {
		putScratch(r.s)
		return nil, fmt.Errorf("route: design has no fabric nets")
	}
	nb := &NetBencher{r: r, nets: nets}
	for _, fn := range nets {
		if err := r.routeNet(fn, presentFactor); err != nil {
			nb.Close()
			return nil, err
		}
	}
	return nb, nil
}

// Step rips up and reroutes the next net (round-robin over the design).
func (n *NetBencher) Step() error {
	fn := n.nets[n.idx]
	n.idx = (n.idx + 1) % len(n.nets)
	n.r.ripUp(fn)
	return n.r.routeNet(fn, presentFactor)
}

// Close returns the router scratch to the pool.
func (n *NetBencher) Close() {
	if n.r.s != nil {
		putScratch(n.r.s)
		n.r.s = nil
	}
}
