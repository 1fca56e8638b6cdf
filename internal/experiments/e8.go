package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/designs"
	"repro/internal/flow"
	"repro/internal/parallel"
	"repro/internal/timing"
)

// E8 is the CAD-effort ablation behind the paper's §2.1 remark that shorter
// runs "could mean more highly optimized designs in the same design time":
// sweeping placer effort trades place-and-route time against routed
// wirelength and achievable clock frequency.
func E8(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	part, err := cfg.cadPart()
	if err != nil {
		return nil, err
	}
	efforts := []float64{0.2, 1.0, 4.0}
	if cfg.Quick {
		efforts = []float64{0.2, 1.0}
	}
	t := &Table{
		ID:    "E8",
		Title: fmt.Sprintf("ablation: placer effort vs P&R time, wirelength and fmax (%s)", part.Name),
		Claim: "more physical-design time buys shorter interconnect and higher clock rates — " +
			"the optimisation headroom partial flows can spend per module",
		Columns: []string{"effort", "P&R time", "routed PIPs", "critical ns", "fmax MHz"},
	}
	insts := []designs.Instance{
		{Prefix: "u1/", Gen: designs.SBoxBank{N: 10, Seed: 4}},
		{Prefix: "u2/", Gen: designs.Counter{Bits: 8}},
	}
	// The effort sweep's points are independent full CAD runs; farm them and
	// emit rows in sweep order.
	type point struct {
		pr   time.Duration
		pips int
		ns   float64
		fmax float64
	}
	pts, err := parallel.Map(ctx, efforts, func(ctx context.Context, _ int, e float64) (point, error) {
		full, err := flow.BuildFull(ctx, part, insts, cfg.flowOptsEffort(cfg.Seed, e))
		if err != nil {
			return point{}, fmt.Errorf("E8 effort %.1f: %w", e, err)
		}
		ta, err := timing.Analyze(full.Phys)
		if err != nil {
			return point{}, err
		}
		return point{
			pr:   full.Times.Place + full.Times.Route,
			pips: full.Phys.RoutedPIPCount(),
			ns:   ta.CriticalNs,
			fmax: ta.FMaxMHz,
		}, nil
	}, cfg.pool()...)
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		t.AddRow(fmt.Sprintf("%.1f", efforts[i]), fullFmt(p.pr),
			p.pips, fmt.Sprintf("%.2f", p.ns), fmt.Sprintf("%.1f", p.fmax))
	}
	lo, hi := pts[0], pts[len(pts)-1]
	t.Note("lowest->highest effort: routed PIPs %d -> %d, critical path %.2f -> %.2f ns",
		lo.pips, hi.pips, lo.ns, hi.ns)
	if hi.pips <= lo.pips {
		t.Note("VERDICT: PASS (effort buys shorter interconnect)")
	} else {
		t.Note("VERDICT: MIXED (annealing noise exceeded the effort effect on this seed)")
	}
	return t, nil
}
