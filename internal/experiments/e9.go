package experiments

import (
	"context"
	"fmt"

	"repro/internal/designs"
	"repro/internal/flow"
)

// E9 quantifies the guided-reimplementation support (the paper's Figure 2
// "NGD and guide file" step): re-implementing a revised module seeded by its
// previous placement at low effort versus a from-scratch run, measuring CAD
// time and placement stability.
func E9(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	part, err := cfg.cadPart()
	if err != nil {
		return nil, err
	}
	base, err := flow.BuildBase(ctx, part, []designs.Instance{
		{Prefix: "u1/", Gen: designs.SBoxBank{N: 10, Seed: 5}},
		{Prefix: "u2/", Gen: designs.Counter{Bits: 6}},
	}, cfg.flowOpts(cfg.Seed))
	if err != nil {
		return nil, err
	}
	original, err := flow.BuildVariant(ctx, base, "u1/", designs.SBoxBank{N: 10, Seed: 7}, cfg.flowOpts(cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	// The "revision": same structure, new LUT contents.
	revised := designs.SBoxBank{N: 10, Seed: 8}

	// The from-scratch and guided re-implementations are independent
	// projects; run them as a two-spec variant farm (each with its own
	// seed, as before).
	built, err := flow.BuildVariants(ctx, base, []flow.VariantSpec{
		{Prefix: "u1/", Gen: revised, Opts: cfg.flowOpts(cfg.Seed + 2)},
		{Prefix: "u1/", Gen: revised, Opts: flow.Options{
			Seed: cfg.Seed + 3, Effort: 0.05, Guide: flow.GuideFrom(original),
		}},
	}, cfg.pool()...)
	if err != nil {
		return nil, err
	}
	scratch, guided := built[0], built[1]

	kept := func(a *flow.Artifacts) string {
		n, total := 0, 0
		for c2, s2 := range a.Phys.Cells {
			total++
			if c1, ok := original.Phys.Netlist.Cell(c2.Name); ok && original.Phys.Cells[c1] == s2 {
				n++
			}
		}
		return fmt.Sprintf("%d/%d", n, total)
	}

	t := &Table{
		ID:    "E9",
		Title: fmt.Sprintf("guided re-implementation of a revised module on %s", part.Name),
		Claim: "guide files let a module revision re-implement incrementally: far less CAD " +
			"time and a placement that stays where the previous version was",
		Columns: []string{"run", "place time", "route time", "sites kept", "routed PIPs"},
	}
	t.AddRow("from scratch", fullFmt(scratch.Times.Place), fullFmt(scratch.Times.Route),
		kept(scratch), scratch.Phys.RoutedPIPCount())
	t.AddRow("guided, low effort", fullFmt(guided.Times.Place), fullFmt(guided.Times.Route),
		kept(guided), guided.Phys.RoutedPIPCount())

	guidedKept, scratchKept := 0, 0
	fmt.Sscanf(kept(guided), "%d/", &guidedKept)
	fmt.Sscanf(kept(scratch), "%d/", &scratchKept)
	speedup := float64(scratch.Times.Place) / float64(guided.Times.Place)
	t.Note("guided placement is %.1fx faster and keeps %d sites (scratch keeps %d by chance)",
		speedup, guidedKept, scratchKept)
	if guidedKept > scratchKept && speedup > 1.5 {
		t.Note("VERDICT: PASS")
	} else {
		t.Note("VERDICT: MIXED (guide effect below threshold on this seed)")
	}
	return t, nil
}
