package place

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/phys"
	"repro/internal/ucf"
)

// regionPlacer packs a generated module under one AREA_GROUP covering
// prefix*, with the pads a Phase 2 variant inherits from flow.Floorplan
// (clk on the left edge, data ports alternating over the top and bottom
// pads of the region's columns), and prepares a placer on it.
func regionPlacer(t *testing.T, gen designs.Generator, prefix string, rg frames.Region,
	guide map[string]phys.Site, seed int64) *placer {
	t.Helper()
	nl, err := designs.Standalone(gen, "v", prefix)
	if err != nil {
		t.Fatal(err)
	}
	cons := ucf.New()
	cons.AddGroup(prefix+"*", "AG", rg)
	cons.NetLocs["clk"] = device.Pad{Edge: device.EdgeL}.Name()
	var names []string
	for k := 0; k < gen.NumInputs(); k++ {
		names = append(names, fmt.Sprintf("in%d", k))
	}
	for k := 0; k < gen.NumOutputs(); k++ {
		names = append(names, fmt.Sprintf("out%d", k))
	}
	for k, name := range names {
		edge := device.EdgeT
		if k%2 == 1 {
			edge = device.EdgeB
		}
		cons.NetLocs[name] = device.Pad{Edge: edge, Index: rg.C1 + k/2}.Name()
	}
	les, err := pack(nl, cons)
	if err != nil {
		t.Fatal(err)
	}
	pl := newPlacer(device.MustByName("XCV50"), nl, les, cons, guide, seed)
	if err := pl.prepare(); err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestProposeStaysInWindow checks the range limiter's draw: every proposed
// target lies in the LE's region and within the window of its current tile,
// and the draws reach every corner of that clipped window.
func TestProposeStaysInWindow(t *testing.T) {
	rg := frames.Region{R1: 2, C1: 3, R2: 11, C2: 9}
	pl := regionPlacer(t, designs.SBoxBank{N: 16, Seed: 9}, "u1/", rg, nil, 5)
	movable, longest := pl.movable()
	if longest != rg.Rows() {
		t.Fatalf("longest region side %d, want %d", longest, rg.Rows())
	}
	for _, w := range []int{1, 2, 3, longest} {
		pl.window = w
		for _, i := range movable {
			at := pl.siteOf[i]
			minR, maxR, minC, maxC := at.Row, at.Row, at.Col, at.Col
			for n := 0; n < 400; n++ {
				s := pl.propose(i)
				if !rg.Contains(s.Row, s.Col) {
					t.Fatalf("window %d: LE %d at %v proposed %v outside %v", w, i, at, s, rg)
				}
				if abs(s.Row-at.Row) > w || abs(s.Col-at.Col) > w {
					t.Fatalf("window %d: LE %d at %v proposed %v", w, i, at, s)
				}
				if !s.Valid(pl.part) {
					t.Fatalf("window %d: proposed invalid site %v", w, s)
				}
				minR, maxR = min(minR, s.Row), max(maxR, s.Row)
				minC, maxC = min(minC, s.Col), max(maxC, s.Col)
			}
			want := [4]int{max(rg.R1, at.Row-w), min(rg.R2, at.Row+w), max(rg.C1, at.Col-w), min(rg.C2, at.Col+w)}
			if got := [4]int{minR, maxR, minC, maxC}; got != want {
				t.Fatalf("window %d: LE %d at %v drew rows/cols %v, want the whole window %v", w, i, at, got, want)
			}
		}
	}
}

func abs(v int) int { return max(v, -v) }

// TestAnnealQualityOnFigure4Variants pins the schedule's quality and cost
// on the ten Figure 4 variants, each placed alone in its E1 floorplan
// region on XCV50 (as flow.Floorplan cuts it) under three seeds. The
// parent schedule (whole-region moves, ×0.9 cooling, max(64, 24·N) moves
// per temperature) read a summed final HPWL of 1,666 and 390,588 proposed
// moves on this exact code; the range limiter must place at least as well
// with at most 60% of those moves.
func TestAnnealQualityOnFigure4Variants(t *testing.T) {
	const parentHPWL, parentMoves = 1666, 390588
	variants := []struct {
		prefix string
		rg     frames.Region
		gen    designs.Generator
	}{
		{"u1/", frames.Region{R1: 0, C1: 0, R2: 15, C2: 7}, designs.Counter{Bits: 6}},
		{"u1/", frames.Region{R1: 0, C1: 0, R2: 15, C2: 7}, designs.LFSR{Bits: 6, Taps: []int{5, 0}}},
		{"u1/", frames.Region{R1: 0, C1: 0, R2: 15, C2: 7}, designs.LFSR{Bits: 6, Taps: []int{5, 2, 1, 0}}},
		{"u2/", frames.Region{R1: 0, C1: 8, R2: 15, C2: 14}, designs.SBoxBank{N: 8, Seed: 11}},
		{"u2/", frames.Region{R1: 0, C1: 8, R2: 15, C2: 14}, designs.SBoxBank{N: 8, Seed: 22}},
		{"u2/", frames.Region{R1: 0, C1: 8, R2: 15, C2: 14}, designs.SBoxBank{N: 8, Seed: 33}},
		{"u3/", frames.Region{R1: 0, C1: 15, R2: 15, C2: 23}, designs.BinaryFIR{Taps: 8, Coeff: 0xB7}},
		{"u3/", frames.Region{R1: 0, C1: 15, R2: 15, C2: 23}, designs.BinaryFIR{Taps: 8, Coeff: 0x7E}},
		{"u3/", frames.Region{R1: 0, C1: 15, R2: 15, C2: 23}, designs.BinaryFIR{Taps: 8, Coeff: 0xDB}},
		{"u3/", frames.Region{R1: 0, C1: 15, R2: 15, C2: 23}, designs.BinaryFIR{Taps: 8, Coeff: 0xE7}},
	}
	var hpwl, moves int64
	for _, v := range variants {
		for seed := int64(1); seed <= 3; seed++ {
			pl := regionPlacer(t, v.gen, v.prefix, v.rg, nil, seed)
			pl.anneal(1.0)
			hpwl += pl.cost
			moves += pl.moves
		}
	}
	t.Logf("summed HPWL %d (parent %d), proposed moves %d (parent %d)", hpwl, parentHPWL, moves, parentMoves)
	if hpwl > parentHPWL {
		t.Errorf("summed final HPWL %d, parent schedule %d", hpwl, parentHPWL)
	}
	if moves*10 > parentMoves*6 {
		t.Errorf("%d proposed moves, more than 60%% of the parent schedule's %d", moves, parentMoves)
	}
}

// TestGuidedRefinementKeepsSites re-places an E9-sized module with its own
// placement as the guide at E9's effort (0.05). A near-greedy start keeps
// the whole-region window; with a one-tile window every zero-cost local move
// is accepted and walks the placement off its guide.
func TestGuidedRefinementKeepsSites(t *testing.T) {
	rg := frames.Region{R1: 0, C1: 0, R2: 15, C2: 11}
	kept, total := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		gen := designs.SBoxBank{N: 10, Seed: 7}
		first := regionPlacer(t, gen, "u1/", rg, nil, seed)
		first.anneal(1.0)
		d, err := first.design()
		if err != nil {
			t.Fatal(err)
		}
		guide := map[string]phys.Site{}
		for c, s := range d.Cells {
			guide[c.Name] = s
		}
		again := regionPlacer(t, gen, "u1/", rg, guide, seed+100)
		again.anneal(0.05)
		d2, err := again.design()
		if err != nil {
			t.Fatal(err)
		}
		for c, s := range d2.Cells {
			total++
			if guide[c.Name] == s {
				kept++
			}
		}
	}
	t.Logf("%d of %d cells kept their guided sites", kept, total)
	if kept*5 < total*4 {
		t.Fatalf("only %d of %d cells kept their guided sites, want at least 80%%", kept, total)
	}
}

// TestUndoLeavesNoTrace runs proposals on a Figure 4 region placer as
// calibration probes and at a hot, a mid and a zero temperature, and
// requires every undone move (a Metropolis reject or a probe) to leave
// positions, occupancy, boxes and cost exactly as they were, and every box
// to equal a fresh rescan after every step. Each step reseeds the placer's
// generator and draws the same proposal from a twin first, so the test
// knows what kind of move it undid.
func TestUndoLeavesNoTrace(t *testing.T) {
	rg := frames.Region{R1: 0, C1: 8, R2: 15, C2: 14}
	pl := regionPlacer(t, designs.SBoxBank{N: 8, Seed: 11}, "u2/", rg, nil, 3)
	movable, longest := pl.movable()
	type state struct {
		siteOf []phys.Site
		occ    []int32
		bb     []netBB
		cost   int64
	}
	var before state
	own, twin := pl.rng, rand.New(rand.NewSource(0))
	var undone, swaps, displacements, sameTile, rescans int
	seed := int64(0)
	for _, phase := range []struct {
		temp   float64
		window int
		steps  int
	}{{measureOnly, longest, 2000}, {30, longest, 8000}, {2, 3, 8000}, {0, 1, 8000}} {
		pl.window = phase.window
		for n := 0; n < phase.steps; n++ {
			seed++
			own.Seed(seed)
			twin.Seed(seed)
			pl.rng = twin
			i := movable[pl.rng.Intn(len(movable))]
			target := pl.propose(i)
			pl.rng = own
			from, ji := pl.siteOf[i], pl.occ[pl.siteIdx(target)]

			before.siteOf = append(before.siteOf[:0], pl.siteOf...)
			before.occ = append(before.occ[:0], pl.occ...)
			before.bb = append(before.bb[:0], pl.bb...)
			before.cost = pl.cost
			recomputes := pl.recomputes
			pl.saved = pl.saved[:0]
			_, kept := pl.tryMove(movable, phase.temp)
			applied := len(pl.saved) > 0

			if !kept || phase.temp == measureOnly {
				if !slices.Equal(pl.siteOf, before.siteOf) || !slices.Equal(pl.occ, before.occ) ||
					!slices.Equal(pl.bb, before.bb) || pl.cost != before.cost {
					t.Fatalf("temp %v, step %d: undoing LE %d %v -> %v (partner %d) changed the placer state",
						phase.temp, n, i, from, target, ji)
				}
				if applied {
					undone++
					switch {
					case ji >= 0:
						swaps++
					case from.Row == target.Row && from.Col == target.Col:
						sameTile++
					default:
						displacements++
					}
					if pl.recomputes > recomputes {
						rescans++
					}
				}
			}
			for k := range pl.bb {
				got := pl.bb[k]
				if pl.recomputeBB(k); pl.bb[k] != got {
					t.Fatalf("temp %v, step %d: net %d box %+v, a rescan gives %+v", phase.temp, n, k, got, pl.bb[k])
				}
			}
		}
	}
	t.Logf("undid %d moves: %d swaps, %d displacements, %d same-tile moves, %d with a rescan",
		undone, swaps, displacements, sameTile, rescans)
	if swaps == 0 || displacements == 0 || sameTile == 0 || rescans == 0 {
		t.Fatalf("undone moves missed a kind: %d swaps, %d displacements, %d same-tile, %d rescans",
			swaps, displacements, sameTile, rescans)
	}
}
