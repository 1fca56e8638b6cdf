package jpg

// The benchmark harness: one Benchmark per paper table/figure (E1..E6, see
// DESIGN.md's experiment index) plus micro-benchmarks of the pipeline
// stages. Run with:
//
//	go test -bench=. -benchmem
//
// The E* benchmarks print their result tables on the first iteration; the
// same tables are produced by `go run ./cmd/jpgbench`.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bitlint"
	"repro/internal/bitstream"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/frames"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/xdl"
	"repro/internal/xhwif"
)

// benchExperiment runs one experiment per iteration, logging the table once.
func benchExperiment(b *testing.B, name string, f func(context.Context, experiments.Config) (*experiments.Table, error)) {
	b.Helper()
	logged := false
	for i := 0; i < b.N; i++ {
		tab, err := f(context.Background(), experiments.Config{Seed: 1, Quick: testing.Short()})
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		if !logged {
			b.Logf("\n%s", tab.Render())
			logged = true
		}
	}
}

// BenchmarkE1_Fig4Combinations regenerates Figure 4 / §4.1: 36 conventional
// CAD runs vs 10 partial runs + 1 base. The independent CAD runs go through
// the worker pool at its default width (all cores).
func BenchmarkE1_Fig4Combinations(b *testing.B) { benchExperiment(b, "E1", experiments.E1) }

// BenchmarkE1Serial is E1 with the worker pool pinned to one worker: the
// strictly serial execution of the seed repository, kept as the baseline
// the parallel farm is measured against.
func BenchmarkE1Serial(b *testing.B) {
	benchExperiment(b, "E1", func(ctx context.Context, cfg experiments.Config) (*experiments.Table, error) {
		cfg.Workers = 1
		return experiments.E1(ctx, cfg)
	})
}

// BenchmarkE1Parallel is E1 with one worker per core (explicitly, ignoring
// $JPG_WORKERS). The ns/op ratio BenchmarkE1Serial / BenchmarkE1Parallel is
// the farm's wall-clock speedup; the tables and bitstreams are byte-identical
// either way (see internal/experiments determinism tests).
func BenchmarkE1Parallel(b *testing.B) {
	benchExperiment(b, "E1", func(ctx context.Context, cfg experiments.Config) (*experiments.Table, error) {
		cfg.Workers = runtime.NumCPU()
		return experiments.E1(ctx, cfg)
	})
}

// BenchmarkE1Cold runs every E1 iteration against a fresh build cache: all
// CAD stages compute, plus the cache's own bookkeeping. Compare with
// BenchmarkE1Warm — the ns/op ratio is the amortization the cache buys.
func BenchmarkE1Cold(b *testing.B) {
	benchExperiment(b, "E1", func(ctx context.Context, cfg experiments.Config) (*experiments.Table, error) {
		return experiments.E1(cache.With(ctx, cache.New(cache.Options{})), cfg)
	})
}

// BenchmarkE1Warm runs E1 against one pre-warmed build cache: every place,
// route and bitgen stage is served by content address.
// The determinism tests prove the tables and bitstreams stay byte-identical.
func BenchmarkE1Warm(b *testing.B) {
	c := cache.New(cache.Options{})
	warm := func(ctx context.Context, cfg experiments.Config) (*experiments.Table, error) {
		return experiments.E1(cache.With(ctx, c), cfg)
	}
	if _, err := warm(context.Background(), experiments.Config{Seed: 1, Quick: testing.Short()}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchExperiment(b, "E1", warm)
}

// BenchmarkE2_BitstreamSizes regenerates the §2.1 size table: partial vs
// complete bitstream bytes across region widths and devices.
func BenchmarkE2_BitstreamSizes(b *testing.B) { benchExperiment(b, "E2", experiments.E2) }

// BenchmarkE3_ReconfigTime regenerates the §2.1 reconfiguration-time table
// over the SelectMAP download model.
func BenchmarkE3_ReconfigTime(b *testing.B) { benchExperiment(b, "E3", experiments.E3) }

// BenchmarkE4_CADTime regenerates the §4.1 CAD-time comparison: constrained
// sub-module vs complete design place-and-route.
func BenchmarkE4_CADTime(b *testing.B) { benchExperiment(b, "E4", experiments.E4) }

// BenchmarkE5_Equivalence regenerates the §3.2 correctness table: frame and
// functional equivalence of partial reconfiguration.
func BenchmarkE5_Equivalence(b *testing.B) { benchExperiment(b, "E5", experiments.E5) }

// BenchmarkE6_ToolComparison regenerates the §2.3 related-work comparison:
// JPG vs PARBIT vs JBitsDiff.
func BenchmarkE6_ToolComparison(b *testing.B) { benchExperiment(b, "E6", experiments.E6) }

// ---- micro-benchmarks of the pipeline stages ----

var benchBaseOnce sync.Once
var benchBase *flow.BaseBuild
var benchVariant *flow.Artifacts

func sharedBase(b *testing.B) (*flow.BaseBuild, *flow.Artifacts) {
	b.Helper()
	benchBaseOnce.Do(func() {
		base, err := flow.BuildBase(context.Background(), device.MustByName("XCV50"), []designs.Instance{
			{Prefix: "u1/", Gen: designs.Counter{Bits: 6}},
			{Prefix: "u2/", Gen: designs.SBoxBank{N: 8, Seed: 3}},
		}, flow.Options{Seed: 1})
		if err != nil {
			panic(err)
		}
		variant, err := flow.BuildVariant(context.Background(), base, "u1/", designs.LFSR{Bits: 6, Taps: []int{5, 2}}, flow.Options{Seed: 2})
		if err != nil {
			panic(err)
		}
		benchBase, benchVariant = base, variant
	})
	return benchBase, benchVariant
}

// BenchmarkFullBitstreamWrite measures complete-bitstream serialisation.
func BenchmarkFullBitstreamWrite(b *testing.B) {
	mem := frames.New(device.MustByName("XCV300"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bs := bitstream.WriteFull(mem)
		b.SetBytes(int64(len(bs)))
	}
}

// BenchmarkBitstreamApply measures the configuration-port VM.
func BenchmarkBitstreamApply(b *testing.B) {
	mem := frames.New(device.MustByName("XCV300"))
	bs := bitstream.WriteFull(mem)
	dst := frames.New(mem.Part)
	b.SetBytes(int64(len(bs)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bitstream.Apply(dst, bs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlaceCounter measures placement of a small module.
func BenchmarkPlaceCounter(b *testing.B) {
	p := device.MustByName("XCV50")
	for i := 0; i < b.N; i++ {
		nl, err := designs.Standalone(designs.Counter{Bits: 8}, "cnt", "u1/")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := place.PlaceCtx(context.Background(), p, nl, place.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteCounter measures routing of a small module.
func BenchmarkRouteCounter(b *testing.B) {
	p := device.MustByName("XCV50")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nl, err := designs.Standalone(designs.Counter{Bits: 8}, "cnt", "u1/")
		if err != nil {
			b.Fatal(err)
		}
		pd, err := place.PlaceCtx(context.Background(), p, nl, place.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := route.RouteCtx(context.Background(), pd, route.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnealMove measures one proposed move of the placement anneal —
// the inner loop the incremental-HPWL bookkeeping exists for. The allocation
// column is the contract: 0 allocs/op in steady state.
func BenchmarkAnnealMove(b *testing.B) {
	p := device.MustByName("XCV50")
	nl, err := designs.Standalone(designs.SBoxBank{N: 16, Seed: 9}, "sb", "u1/")
	if err != nil {
		b.Fatal(err)
	}
	mb, err := place.NewMoveBencher(p, nl, 3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		mb.Step(2.0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb.Step(2.0)
	}
}

// BenchmarkRouteNet measures one rip-up-and-reroute of a net — the unit of
// work the PathFinder iterations repeat. The allocation column is the
// contract: 0 allocs/op once the pooled scratch is warm.
func BenchmarkRouteNet(b *testing.B) {
	p := device.MustByName("XCV50")
	nl, err := designs.Standalone(designs.SBoxBank{N: 16, Seed: 9}, "sb", "u1/")
	if err != nil {
		b.Fatal(err)
	}
	pd, err := place.PlaceCtx(context.Background(), p, nl, place.Options{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	nb, err := route.NewNetBencher(pd)
	if err != nil {
		b.Fatal(err)
	}
	defer nb.Close()
	for i := 0; i < 200; i++ {
		if err := nb.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nb.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJPGGeneratePartial measures the JPG tool itself: XDL/UCF parse,
// JBits replay, and partial-bitstream emission (excluding the CAD runs).
func BenchmarkJPGGeneratePartial(b *testing.B) {
	base, variant := sharedBase(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		proj, err := core.NewProject(base.Bitstream)
		if err != nil {
			b.Fatal(err)
		}
		m, err := proj.AddModule("v", variant.XDL, variant.UCF)
		if err != nil {
			b.Fatal(err)
		}
		res, err := proj.GeneratePartial(m, core.GenerateOptions{Strict: true})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(res.Bitstream)))
	}
}

// BenchmarkPartialDownload measures a partial download on the simulated
// board (dynamic reconfiguration of a running device).
func BenchmarkPartialDownload(b *testing.B) {
	base, variant := sharedBase(b)
	proj, err := core.NewProject(base.Bitstream)
	if err != nil {
		b.Fatal(err)
	}
	m, err := proj.AddModule("v", variant.XDL, variant.UCF)
	if err != nil {
		b.Fatal(err)
	}
	res, err := proj.GeneratePartial(m, core.GenerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	board := xhwif.NewBoard(proj.Part)
	if _, err := board.Download(base.Bitstream); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(res.Bitstream)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := board.Download(res.Bitstream); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEditLoop measures one trip of E10's edit loop per iteration, as
// perfbench's edit-storm op makes it: an INIT edit of one to three S-box
// cells through EditLoop.Edit (netlist diff, splice, module, column
// partial), bitlint's check of the partial against the project base, and
// its download to a board holding the base. Preparing the edited netlist is
// left out of the timer.
func BenchmarkEditLoop(b *testing.B) {
	const bank = 8
	for _, name := range []string{"XCV50", "XCV300", "XCV1000"} {
		b.Run(name, func(b *testing.B) {
			ctx := context.Background()
			p := device.MustByName(name)
			base, err := flow.BuildBase(ctx, p, []designs.Instance{
				{Prefix: "u1/", Gen: designs.Counter{Bits: 6}},
				{Prefix: "u2/", Gen: designs.SBoxBank{N: bank, Seed: 3}},
			}, flow.Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			vopts := flow.Options{Seed: 2}
			variant, err := flow.BuildVariant(ctx, base, "u2/", designs.SBoxBank{N: bank, Seed: 9}, vopts)
			if err != nil {
				b.Fatal(err)
			}
			proj, err := core.NewProject(base.Bitstream)
			if err != nil {
				b.Fatal(err)
			}
			sess, err := flow.NewVariantEditSession(variant, base.Regions["u2/"], vopts)
			if err != nil {
				b.Fatal(err)
			}
			loop := core.NewEditLoop(proj, sess, "u2_bench", core.GenerateOptions{Strict: true})
			board := xhwif.NewBoard(p)
			if _, err := board.Download(base.Bitstream); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			cur := variant.Netlist
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				next := cur.Clone()
				for j, n := 0, 1+rng.Intn(3); j < n; j++ {
					cell, init := fmt.Sprintf("u2/sbox%d", rng.Intn(bank)), uint16(rng.Intn(1<<16))
					if rng.Intn(4) == 0 {
						cell, init = fmt.Sprintf("u2/sq%d", rng.Intn(bank)), uint16(rng.Intn(2))
					}
					if err := next.SetInit(cell, init); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				res, err := loop.Edit(ctx, next)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := bitlint.VerifyPartial(proj.Base, res.Partial.Bitstream); err != nil {
					b.Fatal(err)
				}
				if _, err := board.Download(res.Partial.Bitstream); err != nil {
					b.Fatal(err)
				}
				cur = next
			}
		})
	}
}

// BenchmarkGraphBuild measures routing-graph construction per part.
func BenchmarkGraphBuild(b *testing.B) {
	for _, name := range []string{"XCV50", "XCV300"} {
		b.Run(name, func(b *testing.B) {
			p := device.MustByName(name)
			for i := 0; i < b.N; i++ {
				// Bypass the cache to measure the build itself.
				g := device.NewGraphUncached(p)
				if g.NumPIPs() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// BenchmarkXDLRoundTrip measures the XDL emit+parse path JPG depends on.
func BenchmarkXDLRoundTrip(b *testing.B) {
	_, variant := sharedBase(b)
	b.SetBytes(int64(len(variant.XDL)))
	for i := 0; i < b.N; i++ {
		if _, err := xdl.Load(variant.XDL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_Granularity runs the column-region vs diff-minimal partial
// bitstream ablation.
func BenchmarkE7_Granularity(b *testing.B) { benchExperiment(b, "E7", experiments.E7) }

// BenchmarkE8_EffortSweep runs the placer-effort vs timing ablation.
func BenchmarkE8_EffortSweep(b *testing.B) { benchExperiment(b, "E8", experiments.E8) }

// BenchmarkE9_GuidedFlow runs the guided re-implementation experiment.
func BenchmarkE9_GuidedFlow(b *testing.B) { benchExperiment(b, "E9", experiments.E9) }
