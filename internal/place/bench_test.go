package place

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/netlist"
)

func sboxDesign(t *testing.T, n int) *netlist.Design {
	t.Helper()
	d, err := designs.Standalone(designs.SBoxBank{N: n, Seed: 9}, "sb", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestIncrementalCostMatchesRescan validates the incremental-HPWL
// bookkeeping: after any number of accepted/rejected/reverted moves at any
// temperature and move window, the maintained total must equal a
// from-scratch rescan of every net. HPWL is integral, so the comparison is
// exact.
func TestIncrementalCostMatchesRescan(t *testing.T) {
	p := device.MustByName("XCV50")
	for _, nl := range []*netlist.Design{counterDesign(t, 8), sboxDesign(t, 16)} {
		mb, err := NewMoveBencher(p, nl, 7)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := float64(mb.Cost()), mb.CostFromScratch(); got != want {
			t.Fatalf("%s: initial cost %v, rescan says %v", nl.Name, got, want)
		}
		// The whole-region window, then the range limiter's narrowest ones.
		// Greedy, hot, and warm phases hit different paths: pure downhill
		// moves, Metropolis accepts of uphill moves, and reverts.
		for _, window := range []int{mb.pl.window, 1, 2} {
			mb.pl.window = window
			for _, temp := range []float64{32, 4, 0.5, 0} {
				for i := 0; i < 2000; i++ {
					mb.Step(temp)
				}
				if got, want := float64(mb.Cost()), mb.CostFromScratch(); got != want {
					t.Fatalf("%s: after moves at window %d, temp %v cost %v, rescan says %v",
						nl.Name, window, temp, got, want)
				}
			}
		}
	}
}

// TestAnnealMoveZeroAlloc pins the annealing inner loop at zero allocations
// per proposed move — the placement half of the flow's hot-path contract.
func TestAnnealMoveZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := device.MustByName("XCV50")
	mb, err := NewMoveBencher(p, sboxDesign(t, 16), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		mb.Step(2.0)
	}
	if allocs := testing.AllocsPerRun(5000, func() { mb.Step(2.0) }); allocs != 0 {
		t.Errorf("tryMove allocates %.2f objects per move, want 0", allocs)
	}
}
