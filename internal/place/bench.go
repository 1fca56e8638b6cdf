package place

import (
	"repro/internal/device"
	"repro/internal/netlist"
)

// Benchmark surface. The annealing inner loop works on unexported placer
// state, so the repository-level benchmarks and the allocation-regression
// tests drive it through this narrow exported hook instead of reimplementing
// the loop. Not intended for production callers.

// MoveBencher drives single annealing proposals against a fully prepared
// placer (packed, initially placed, incremental cost model built).
type MoveBencher struct {
	pl      *placer
	movable []int
}

// NewMoveBencher prepares a placer for the netlist exactly as a real
// annealing start would (pack, pad assignment, initial placement, cost
// model) and exposes its move loop, with the whole-region move window an
// annealing start opens with.
func NewMoveBencher(p *device.Part, nl *netlist.Design, seed int64) (*MoveBencher, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	les, err := pack(nl, nil)
	if err != nil {
		return nil, err
	}
	pl := newPlacer(p, nl, les, nil, nil, seed)
	if err := pl.prepare(); err != nil {
		return nil, err
	}
	mb := &MoveBencher{pl: pl}
	mb.movable, pl.window = pl.movable()
	return mb, nil
}

// Step proposes one move at the given temperature — the annealing loop's
// body. A moderate temperature exercises the full mix the real loop sees:
// displacements, swaps, accepts, Metropolis rejects and reverts.
func (m *MoveBencher) Step(temp float64) { m.pl.tryMove(m.movable, temp) }

// Cost returns the incrementally maintained total HPWL.
func (m *MoveBencher) Cost() int64 { return m.pl.cost }

// CostFromScratch recomputes the total HPWL by rescanning every net — the
// reference the incremental bookkeeping is validated against.
func (m *MoveBencher) CostFromScratch() float64 { return m.pl.totalCost() }
