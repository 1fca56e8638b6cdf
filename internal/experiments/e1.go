package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/flow"
	"repro/internal/parallel"
)

// RegionSpec is one reconfigurable region with its interface-compatible
// variants. The first variant is the base design's.
type RegionSpec struct {
	Prefix   string
	Variants []designs.Generator
}

// Fig4Scenario returns the paper's Figure 4 partitioning: three regions with
// 3, 3 and 4 module variants (3 x 3 x 4 = 36 combinations).
func Fig4Scenario() []RegionSpec {
	return []RegionSpec{
		{Prefix: "u1/", Variants: []designs.Generator{
			designs.Counter{Bits: 6},
			designs.LFSR{Bits: 6, Taps: []int{5, 0}},
			designs.LFSR{Bits: 6, Taps: []int{5, 2, 1, 0}},
		}},
		{Prefix: "u2/", Variants: []designs.Generator{
			designs.SBoxBank{N: 8, Seed: 11},
			designs.SBoxBank{N: 8, Seed: 22},
			designs.SBoxBank{N: 8, Seed: 33},
		}},
		{Prefix: "u3/", Variants: []designs.Generator{
			designs.BinaryFIR{Taps: 8, Coeff: 0xB7}, // 6 ones -> 3 output bits
			designs.BinaryFIR{Taps: 8, Coeff: 0x7E}, // 6 ones
			designs.BinaryFIR{Taps: 8, Coeff: 0xDB}, // 6 ones
			designs.BinaryFIR{Taps: 8, Coeff: 0xE7}, // 6 ones
		}},
	}
}

// quickScenario is a shrunken 3 x 3 variant set for fast test runs (9
// combinations vs 6 variants, preserving the combinatorial advantage).
func quickScenario() []RegionSpec {
	full := Fig4Scenario()
	return []RegionSpec{
		{Prefix: "u1/", Variants: full[0].Variants},
		{Prefix: "u2/", Variants: full[1].Variants},
	}
}

// E1 reproduces Figure 4 / §4.1: supporting every combination of module
// variants needs one full CAD run and one complete bitstream per combination
// under the conventional flow, versus one base build plus one small
// constrained run and partial bitstream per variant under the JPG flow.
func E1(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	scenario := Fig4Scenario()
	if cfg.Quick {
		scenario = quickScenario()
	}
	part, err := cfg.cadPart()
	if err != nil {
		return nil, err
	}

	combos := 1
	variants := 0
	for _, rs := range scenario {
		combos *= len(rs.Variants)
		variants += len(rs.Variants)
	}
	t := &Table{
		ID:    "E1",
		Title: fmt.Sprintf("Figure 4 scenario on %s: %d combinations vs %d partials", part.Name, combos, variants),
		Claim: "conventional flow: one full CAD run + full bitstream per combination (36); " +
			"JPG flow: one base + one partial per variant (10), each partial ~1/3 of a full bitstream",
		Columns: []string{"flow", "CAD runs", "bitstreams", "total bytes", "CAD time", "bytes/switch"},
	}

	// Conventional flow: every combination is a full implementation. The
	// combinations are independent CAD runs — the axis the paper's 36-vs-10
	// claim counts — so they are farmed through the worker pool and reduced
	// in combination order (sums of integers, so the totals are identical
	// for any worker count).
	type convRun struct {
		total time.Duration
		bytes int
	}
	convResults, err := parallel.Map(ctx, enumerate(scenario), func(ctx context.Context, _ int, combo []designs.Instance) (convRun, error) {
		full, err := flow.BuildFull(ctx, part, combo, cfg.flowOpts(cfg.Seed))
		if err != nil {
			return convRun{}, fmt.Errorf("E1 conventional: %w", err)
		}
		return convRun{total: full.Times.Total(), bytes: len(full.Bitstream)}, nil
	}, cfg.pool()...)
	if err != nil {
		return nil, err
	}
	var convTime time.Duration
	convBytes := 0
	convRuns := 0
	for _, r := range convResults {
		convTime += r.total
		convBytes += r.bytes
		convRuns++
	}

	// JPG flow: one base build, then one constrained variant run + partial
	// bitstream per variant.
	baseInsts := make([]designs.Instance, len(scenario))
	for i, rs := range scenario {
		baseInsts[i] = designs.Instance{Prefix: rs.Prefix, Gen: rs.Variants[0]}
	}
	base, err := flow.BuildBase(ctx, part, baseInsts, cfg.flowOpts(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("E1 base: %w", err)
	}
	jpgTime := base.Times.Total()
	jpgBytes := len(base.Bitstream)
	jpgRuns := 1
	proj, err := core.NewProject(base.Bitstream)
	if err != nil {
		return nil, err
	}
	// Phase 2: each variant re-implementation is an independent constrained
	// project (each keeps the seed the serial flow gave it), so the batch
	// goes through the variant farm and then through the concurrent partial
	// generator; JPG-tool time is summed per task, as in the serial flow.
	var specs []flow.VariantSpec
	var names []string
	for _, rs := range scenario {
		for vi, gen := range rs.Variants {
			specs = append(specs, flow.VariantSpec{
				Prefix: rs.Prefix, Gen: gen,
				Opts: cfg.flowOpts(cfg.Seed + int64(vi)),
			})
			names = append(names, rs.Prefix+gen.Name())
		}
	}
	vas, err := flow.BuildVariants(ctx, base, specs, cfg.pool()...)
	if err != nil {
		return nil, fmt.Errorf("E1 variants: %w", err)
	}
	mods := make([]*core.Module, len(vas))
	var addTime time.Duration
	for i, va := range vas {
		jpgTime += va.Times.Total()
		jpgRuns++
		t0 := time.Now()
		m, err := proj.AddModule(names[i], va.XDL, va.UCF)
		if err != nil {
			return nil, err
		}
		addTime += time.Since(t0)
		mods[i] = m
	}
	type genRun struct {
		d     time.Duration
		bytes int
	}
	gens, err := parallel.Map(ctx, mods, func(ctx context.Context, _ int, m *core.Module) (genRun, error) {
		t0 := time.Now()
		res, err := proj.GeneratePartialCtx(ctx, m, cfg.genOpts(core.GenerateOptions{Strict: true}))
		if err != nil {
			return genRun{}, err
		}
		return genRun{d: time.Since(t0), bytes: len(res.Bitstream)}, nil
	}, cfg.pool()...)
	if err != nil {
		return nil, err
	}
	jpgTime += addTime
	partialBytes := 0
	partials := 0
	for _, g := range gens {
		jpgTime += g.d
		partialBytes += g.bytes
		partials++
	}
	jpgBytes += partialBytes

	t.AddRow("conventional", convRuns, convRuns, convBytes, convTime.Round(time.Millisecond).String(),
		convBytes/convRuns)
	t.AddRow("JPG partial", jpgRuns, 1+partials, jpgBytes, jpgTime.Round(time.Millisecond).String(),
		partialBytes/partials)

	fullAvg := float64(convBytes) / float64(convRuns)
	partAvg := float64(partialBytes) / float64(partials)
	t.Note("CAD runs: %d conventional vs %d JPG (paper: 36 vs 10+1 base)", convRuns, jpgRuns)
	t.Note("average partial bitstream is %.2fx the average full bitstream (paper: ~1/3)", partAvg/fullAvg)
	t.Note("total bytes ratio conventional/JPG = %.2fx", float64(convBytes)/float64(jpgBytes))
	t.Note("total CAD time ratio conventional/JPG = %.2fx", float64(convTime)/float64(jpgTime))
	if convRuns <= jpgRuns {
		t.Note("VERDICT: FAIL (JPG flow did not reduce CAD runs)")
	} else if float64(convBytes) <= float64(jpgBytes) {
		t.Note("VERDICT: FAIL (JPG flow did not reduce bitstream volume)")
	} else {
		t.Note("VERDICT: PASS (shape matches the paper)")
	}
	return t, nil
}

// enumerate expands the cartesian product of variant choices into full
// instance lists.
func enumerate(scenario []RegionSpec) [][]designs.Instance {
	var out [][]designs.Instance
	combo := make([]designs.Instance, len(scenario))
	var rec func(i int)
	rec = func(i int) {
		if i == len(scenario) {
			out = append(out, append([]designs.Instance(nil), combo...))
			return
		}
		for _, gen := range scenario[i].Variants {
			combo[i] = designs.Instance{Prefix: scenario[i].Prefix, Gen: gen}
			rec(i + 1)
		}
	}
	rec(0)
	return out
}
