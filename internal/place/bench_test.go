package place

import (
	"context"
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
// temperature, the maintained total must equal a from-scratch rescan of
// every net. HPWL is integral, so the comparison is exact.
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
		// Greedy, hot, and warm phases hit different paths: pure downhill
		// moves, Metropolis accepts of uphill moves, and reverts.
		for _, temp := range []float64{32, 4, 0.5, 0} {
			for i := 0; i < 2000; i++ {
				mb.Step(temp)
			}
			if got, want := float64(mb.Cost()), mb.CostFromScratch(); got != want {
				t.Fatalf("%s: after moves at temp %v cost %v, rescan says %v",
					nl.Name, temp, got, want)
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

// TestMultiStartDeterministicAcrossWorkers pins multi-start placement's core
// contract: the winning placement depends on (Seed, Starts) alone, never on
// how many workers annealed the batch.
func TestMultiStartDeterministicAcrossWorkers(t *testing.T) {
	p := device.MustByName("XCV50")
	nl := sboxDesign(t, 12)
	ctx := context.Background()
	ref, err := PlaceCtx(ctx, p, nl, Options{Seed: 42, Starts: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		d, err := PlaceCtx(ctx, p, nl, Options{Seed: 42, Starts: 4, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, c := range nl.Cells {
			if d.Cells[c] != ref.Cells[c] {
				t.Fatalf("cell %q at %v with workers=%d, %v with workers=1",
					c.Name, d.Cells[c], workers, ref.Cells[c])
			}
		}
		for _, pt := range nl.Ports {
			if d.Ports[pt] != ref.Ports[pt] {
				t.Fatalf("port %q at %v with workers=%d, %v with workers=1",
					pt.Name, d.Ports[pt], workers, ref.Ports[pt])
			}
		}
	}
}

// TestMultiStartPicksLowestCostStart replays each start's anneal by hand and
// checks PlaceCtx returns exactly the placement of the lowest-cost start
// (ties to the lowest index) — the selection rule worker scheduling must
// never perturb.
func TestMultiStartPicksLowestCostStart(t *testing.T) {
	p := device.MustByName("XCV50")
	nl := sboxDesign(t, 12)
	const seed, starts = 11, 4

	bestStart, bestCost := 0, int64(0)
	for s := 0; s < starts; s++ {
		les, err := pack(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		pl := newPlacer(p, nl, les, nil, nil, startSeed(seed, s))
		if err := pl.run(1.0); err != nil {
			t.Fatal(err)
		}
		if s == 0 || pl.cost < bestCost {
			bestStart, bestCost = s, pl.cost
		}
	}

	got, err := PlaceCtx(context.Background(), p, nl, Options{Seed: seed, Starts: starts})
	if err != nil {
		t.Fatal(err)
	}
	// A single-start run seeded with the winner's derived seed reproduces
	// the winning anneal exactly.
	want, err := PlaceCtx(context.Background(), p, nl, Options{Seed: startSeed(seed, bestStart)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range nl.Cells {
		if got.Cells[c] != want.Cells[c] {
			t.Fatalf("cell %q: multi-start picked %v, lowest-cost start %d has %v",
				c.Name, got.Cells[c], bestStart, want.Cells[c])
		}
	}
}
