package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/bitgen"
	"repro/internal/bitlint"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/frames"
	"repro/internal/ncd"
	"repro/internal/netlist"
	"repro/internal/phys"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/timing"
	"repro/internal/ucf"
	"repro/internal/xdl"
	"repro/internal/xhwif"
)

// fig4-farm: the paper's Figure 4 scenario (E1) on XCV50, three regions
// with 3, 3 and 4 variants. One op is one Phase-2 variant turnaround:
// flow.BuildVariant, Project.AddModule, a strict partial, bitlint verify and
// a board download, closed loop with one op in flight. Ops cycle over the
// ten variants; op i places with seed mix(seed, i).

const (
	// fig4Repeat is how many leading ops the exact-repeat values cover.
	fig4Repeat = 30
	// baseSeed places and routes every workload's base design: the base is
	// the fixed context the seeded ops run against.
	baseSeed = 1
	// warmSeed drives set-up's untimed op, so set-up does the same work for
	// every workload seed.
	warmSeed = 0
)

var fig4Counters = []string{
	"place.moves_proposed", "place.moves_accepted",
	"route.searches", "route.search_retries", "route.heap_pushes", "route.iterations",
	"core.frames_carried", "core.frames_changed",
}

type fig4Variant struct {
	prefix string
	gen    designs.Generator
}

func (v fig4Variant) name() string     { return v.prefix + v.gen.Name() }
func (v fig4Variant) instBase() string { return strings.TrimSuffix(v.prefix, "/") }

// fig4 is the workload's set-up: the base design and its variants.
type fig4 struct {
	part     *device.Part
	base     *flow.BaseBuild
	variants []fig4Variant
}

// fig4State is what ops mutate: the board, and the project (a fresh one
// every pass over the variants, so state stays bounded).
type fig4State struct {
	board *xhwif.Board
	proj  *core.Project
}

// fig4Out is what one op produced.
type fig4Out struct {
	full, partial, xdl [32]byte
	partialBytes       int
	pips               int
	counts             counters
	// pd is the routed variant, for the critical path of the leading ops.
	pd *phys.Design
}

func buildFig4(ctx context.Context) (*fig4, error) {
	part, err := device.ByName("XCV50")
	if err != nil {
		return nil, err
	}
	f := &fig4{part: part}
	var insts []designs.Instance
	for _, rs := range experiments.Fig4Scenario() {
		insts = append(insts, designs.Instance{Prefix: rs.Prefix, Gen: rs.Variants[0]})
		for _, g := range rs.Variants {
			f.variants = append(f.variants, fig4Variant{prefix: rs.Prefix, gen: g})
		}
	}
	if f.base, err = flow.BuildBase(ctx, part, insts, flow.Options{Seed: baseSeed, Workers: 1}); err != nil {
		return nil, err
	}
	return f, nil
}

// boardWithBase returns a board configured with base.
func boardWithBase(part *device.Part, base []byte) (*xhwif.Board, error) {
	b := xhwif.NewBoard(part)
	if _, err := b.Download(base); err != nil {
		return nil, fmt.Errorf("configure board with base: %w", err)
	}
	return b, nil
}

func (f *fig4) newState() (*fig4State, error) {
	b, err := boardWithBase(f.part, f.base.Bitstream)
	if err != nil {
		return nil, err
	}
	return &fig4State{board: b}, nil
}

// placeSeed is op i's placement seed.
func placeSeed(seed int64, i int) int64 { return mix(seed, i) % 1_000_000_007 }

// beginOp starts a new project at the start of every pass.
func (f *fig4) beginOp(st *fig4State, i int) error {
	if i%len(f.variants) != 0 && st.proj != nil {
		return nil
	}
	p, err := core.NewProject(f.base.Bitstream)
	st.proj = p
	return err
}

// op runs one turnaround through the public calls and checks it outside
// the timed part.
func (f *fig4) op(ctx context.Context, st *fig4State, seed int64, i int) (fig4Out, opTime, error) {
	if err := f.beginOp(st, i); err != nil {
		return fig4Out{}, opTime{}, err
	}
	v := f.variants[i%len(f.variants)]
	c := readCounters(fig4Counters...)
	sw := startWatch()
	a, err := flow.BuildVariant(ctx, f.base, v.prefix, v.gen, flow.Options{Seed: placeSeed(seed, i), Workers: 1})
	if err != nil {
		return fig4Out{}, opTime{}, err
	}
	m, err := st.proj.AddModule(v.name(), a.XDL, a.UCF)
	if err != nil {
		return fig4Out{}, opTime{}, err
	}
	res, err := st.proj.GeneratePartialCtx(ctx, m, core.GenerateOptions{Strict: true})
	if err != nil {
		return fig4Out{}, opTime{}, err
	}
	rep, err := bitlint.VerifyPartial(st.proj.Base, res.Bitstream)
	if err != nil {
		return fig4Out{}, opTime{}, wrongf("op %d %s: partial fails bitlint: %v", i, v.name(), err)
	}
	if _, err := st.board.Download(res.Bitstream); err != nil {
		return fig4Out{}, opTime{}, err
	}
	dur := sw.stop()
	out := fig4Out{
		full: sha256.Sum256(a.Bitstream), partial: sha256.Sum256(res.Bitstream),
		xdl: sha256.Sum256([]byte(a.XDL)), partialBytes: len(res.Bitstream),
		pips: a.Phys.RoutedPIPCount(), counts: c.delta(), pd: a.Phys,
	}
	return out, dur, checkC4(st, i, res, rep)
}

// checkC4 runs outside the timed part: the board's readback of the region
// must equal base plus the partial, as bitlint reconstructed it (C4).
func checkC4(st *fig4State, i int, res *core.Result, rep *bitlint.Report) error {
	got, err := st.board.ReadbackFrames(res.FARs)
	if err != nil {
		return wrongf("op %d: readback: %v", i, err)
	}
	for k, far := range res.FARs {
		want := rep.Frames.Frame(far)
		for w := range want {
			if got[k][w] != want[w] {
				return wrongf("op %d: board frame %v word %d is %#x, base+partial has %#x (C4)",
					i, far, w, got[k][w], want[w])
			}
		}
	}
	return nil
}

// confineTo is flow.BuildVariant's router constraint: every non-clock net
// stays in the instance region.
func confineTo(rg frames.Region) func(*netlist.Net) *frames.Region {
	return func(n *netlist.Net) *frames.Region {
		if n.IsClock {
			return nil
		}
		r := rg
		return &r
	}
}

// constraints rebuilds the UCF flow.BuildVariant derives for a variant: the
// instance's AREA_GROUP plus the base's pads for clk and the data ports.
func (f *fig4) constraints(v fig4Variant) (*ucf.Constraints, frames.Region, error) {
	rg, ok := f.base.Regions[v.prefix]
	if !ok {
		return nil, rg, fmt.Errorf("base has no instance %q", v.prefix)
	}
	cons := ucf.New()
	cons.AddGroup(v.prefix+"*", "AG_"+v.instBase(), rg)
	bind := func(port, basePort string) error {
		pad, ok := f.base.Pads[basePort]
		if !ok {
			return fmt.Errorf("base has no port %q", basePort)
		}
		cons.NetLocs[port] = pad
		return nil
	}
	if err := bind("clk", "clk"); err != nil {
		return nil, rg, err
	}
	for k := 0; k < v.gen.NumInputs(); k++ {
		if err := bind(fmt.Sprintf("in%d", k), fmt.Sprintf("%s_in%d", v.instBase(), k)); err != nil {
			return nil, rg, err
		}
	}
	for k := 0; k < v.gen.NumOutputs(); k++ {
		if err := bind(fmt.Sprintf("out%d", k), fmt.Sprintf("%s_out%d", v.instBase(), k)); err != nil {
			return nil, rg, err
		}
	}
	return cons, rg, nil
}

// tracedOp is op with flow.BuildVariant split into the layer calls it is
// made of (map, place, route, bitgen, emit), each call timed from here.
func (f *fig4) tracedOp(ctx context.Context, st *fig4State, seed int64, i int, l *layers) (fig4Out, time.Duration, error) {
	if err := f.beginOp(st, i); err != nil {
		return fig4Out{}, 0, err
	}
	v := f.variants[i%len(f.variants)]
	c := readCounters(fig4Counters...)
	op0 := time.Now()

	t := time.Now()
	nl, err := designs.Standalone(v.gen, v.instBase()+"_"+v.gen.Name(), v.prefix)
	if err != nil {
		return fig4Out{}, 0, err
	}
	cons, rg, err := f.constraints(v)
	if err != nil {
		return fig4Out{}, 0, err
	}
	l.since("designs.map_ms", t)

	t = time.Now()
	pd, err := place.PlaceCtx(ctx, f.part, nl, place.Options{Seed: placeSeed(seed, i), Constraints: cons, Workers: 1})
	l.since("place.ms", t)
	if err != nil {
		return fig4Out{}, 0, err
	}

	t = time.Now()
	err = route.RouteCtx(ctx, pd, route.Options{RegionForNet: confineTo(rg)})
	l.since("route.ms", t)
	if err != nil {
		return fig4Out{}, 0, err
	}

	t = time.Now()
	full, err := bitgen.FullBitstream(pd)
	l.since("bitgen.ms", t)
	if err != nil {
		return fig4Out{}, 0, err
	}

	t = time.Now()
	xdlText, err := xdl.Emit(pd)
	if err != nil {
		return fig4Out{}, 0, err
	}
	if _, err := ncd.Marshal(pd); err != nil {
		return fig4Out{}, 0, err
	}
	ucfText := cons.Emit()
	l.since("xdl.emit_ms", t)

	t = time.Now()
	m, err := st.proj.AddModule(v.name(), xdlText, ucfText)
	l.since("core.add_module_ms", t)
	if err != nil {
		return fig4Out{}, 0, err
	}

	t = time.Now()
	res, err := st.proj.GeneratePartialCtx(ctx, m, core.GenerateOptions{Strict: true})
	l.since("core.partial_ms", t)
	if err != nil {
		return fig4Out{}, 0, err
	}

	t = time.Now()
	rep, err := bitlint.VerifyPartial(st.proj.Base, res.Bitstream)
	l.since("bitlint.verify_ms", t)
	if err != nil {
		return fig4Out{}, 0, wrongf("op %d %s: partial fails bitlint: %v", i, v.name(), err)
	}

	t = time.Now()
	ds, err := st.board.Download(res.Bitstream)
	l.since("xhwif.download_ms", t)
	if err != nil {
		return fig4Out{}, 0, err
	}
	dur := time.Since(op0)

	d := c.delta()
	l.ops++
	l.opDur += dur
	l.add("place.moves", float64(d["place.moves_proposed"]))
	l.add("place.accepted", float64(d["place.moves_accepted"]))
	l.add("route.retries", float64(d["route.search_retries"]))
	l.add("core.frames_changed", float64(d["core.frames_changed"]))
	l.add("route.searches", float64(d["route.searches"]))
	l.add("route.heap_pushes", float64(d["route.heap_pushes"]))
	l.add("route.iterations", float64(d["route.iterations"]))
	l.add("route.pips", float64(pd.RoutedPIPCount()))
	l.add("core.frames_carried", float64(d["core.frames_carried"]))
	l.add("xhwif.model_ms", ms(ds.ModelTime))
	out := fig4Out{
		full: sha256.Sum256(full), partial: sha256.Sum256(res.Bitstream),
		xdl: sha256.Sum256([]byte(xdlText)), partialBytes: len(res.Bitstream),
		pips: pd.RoutedPIPCount(), counts: d, pd: pd,
	}
	return out, dur, checkC4(st, i, res, rep)
}

// fig4Repeats accumulates the exact-repeat values over the leading ops.
type fig4Repeats struct {
	n           int
	bytes, crit float64
	pips        int64
	counts      counters
}

// add folds in a leading op, analysing its routed design's timing.
func (r *fig4Repeats) add(i int, out fig4Out) error {
	a, err := timing.Analyze(out.pd)
	if err != nil {
		return wrongf("op %d: timing analysis: %v", i, err)
	}
	if r.counts == nil {
		r.counts = counters{}
	}
	r.n++
	r.bytes += float64(out.partialBytes)
	r.crit += a.CriticalNs
	r.pips += int64(out.pips)
	for name, v := range out.counts {
		r.counts[name] += v
	}
	return nil
}

func (r *fig4Repeats) values() repeats {
	n := float64(r.n)
	return repeats{
		"partial_kb":          r.bytes / n / 1024,
		"crit_path_ns":        r.crit / n,
		"route.searches":      float64(r.counts["route.searches"]),
		"route.heap_pushes":   float64(r.counts["route.heap_pushes"]),
		"route.iterations":    float64(r.counts["route.iterations"]),
		"route.pips":          float64(r.pips),
		"place.moves":         float64(r.counts["place.moves_proposed"]),
		"core.frames_carried": float64(r.counts["core.frames_carried"]),
	}
}

func runFig4(cfg runConfig) (*report, error) {
	ctx := context.Background()
	// Set-up: base build, a configured board, and one untimed turnaround so
	// lazy state (device graphs, router scratch) exists before timing.
	f, setupS, err := timeSetup(func() (*fig4, error) {
		f, err := buildFig4(ctx)
		if err != nil {
			return nil, err
		}
		st, err := f.newState()
		if err != nil {
			return nil, err
		}
		_, _, err = f.op(ctx, st, warmSeed, 0)
		return f, err
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := newReport()
	if cfg.trace {
		r.notes["setup_s"] = setupS
		return r, f.traced(ctx, cfg, r)
	}
	r.set("setup_s", setupS, setupReps)

	st, err := f.newState()
	if err != nil {
		return nil, err
	}
	var rp fig4Repeats
	// Whole passes over the variants, so every run ends holding a full
	// project and weighs every variant alike.
	loop, err := closedLoop(cfg.duration(), max(minSamples(0.95), fig4Repeat), len(f.variants), func(i int) (opTime, error) {
		out, dur, err := f.op(ctx, st, cfg.seed, i)
		if err == nil && i < fig4Repeat {
			err = rp.add(i, out)
		}
		return dur, err
	})
	if err != nil {
		return r, err
	}
	if err := loop.report(r); err != nil {
		return r, err
	}
	r.set("live_heap_mb", liveHeapMB(), 1)
	if rp.n < fig4Repeat {
		return r, fmt.Errorf("only %d of the %d leading ops succeeded", rp.n, fig4Repeat)
	}
	return r, checkRecorded(cfg, rp.values())
}

// traced runs the same k ops twice in one process, interleaved op by op:
// through the public calls (for output bytes, exact-repeat values and the
// overhead baseline) and split into timed layer calls.
func (f *fig4) traced(ctx context.Context, cfg runConfig, r *report) error {
	k := max(fig4Repeat, 10*int(math.Ceil(cfg.seconds)))
	stU, err := f.newState()
	if err != nil {
		return err
	}
	stT, err := f.newState()
	if err != nil {
		return err
	}
	var untraced time.Duration
	var rpU, rpT fig4Repeats
	l := newLayers()
	for i := 0; i < k; i++ {
		want, dur, err := f.op(ctx, stU, cfg.seed, i)
		if err == nil && i < fig4Repeat {
			err = rpU.add(i, want)
		}
		if err != nil {
			return fmt.Errorf("untraced op %d: %w", i, err)
		}
		untraced += dur.wall
		got, _, err := f.tracedOp(ctx, stT, cfg.seed, i, l)
		if err == nil && i < fig4Repeat {
			err = rpT.add(i, got)
		}
		if err != nil {
			return fmt.Errorf("traced op %d: %w", i, err)
		}
		if got.full != want.full || got.partial != want.partial || got.xdl != want.xdl {
			return wrongf("op %d: traced output bytes differ from the untraced run", i)
		}
	}
	r.attempted = 2 * k
	l.report(r, untraced)
	r.ratio("place.accept_ratio", l.count["place.accepted"], l.count["place.moves"], k)
	r.ratio("route.retry_ratio", l.count["route.retries"], l.count["route.searches"], k)
	r.ratio("core.changed_ratio", l.count["core.frames_changed"], l.count["core.frames_carried"], k)
	vals := rpU.values()
	if err := vals.check(rpT.values(), "traced vs untraced"); err != nil {
		return err
	}
	r.set("partial_kb", vals["partial_kb"], rpU.n)
	r.set("crit_path_ns", vals["crit_path_ns"], rpU.n)
	return checkRecorded(cfg, vals)
}
