// Package flow orchestrates the CAD pipelines of the reproduction: the
// conventional full-design flow (netlist -> place -> route -> bitgen) and the
// paper's two-phase partial-reconfiguration methodology — Phase 1 builds a
// floorplanned base design; Phase 2 re-implements sub-module variants as
// standalone projects constrained to their regions, producing the XDL/UCF
// pairs the JPG tool consumes. Every stage is timed, because the paper's
// central quantitative claims are about CAD runtime and bitstream size.
package flow

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/phys"
	"repro/internal/place"
	"repro/internal/ucf"
)

// Stage metrics (always on; see internal/obs): per-stage latency
// distributions plus build counters, the numbers behind the paper's C3
// claim that constrained variant runs are much cheaper than full ones.
var (
	mMapNS    = obs.GetHistogram("flow.map_ns")
	mPlaceNS  = obs.GetHistogram("flow.place_ns")
	mRouteNS  = obs.GetHistogram("flow.route_ns")
	mBitgenNS = obs.GetHistogram("flow.bitgen_ns")
	mEmitNS   = obs.GetHistogram("flow.emit_ns")

	mBaseBuilds    = obs.GetCounter("flow.base_builds")
	mVariantBuilds = obs.GetCounter("flow.variant_builds")
	mFullBuilds    = obs.GetCounter("flow.full_builds")
)

// StageTimes records per-stage wall-clock times of one CAD run.
type StageTimes struct {
	Synthesis time.Duration // netlist generation + mapping
	Place     time.Duration
	Route     time.Duration
	Bitgen    time.Duration
}

// Total sums the stages.
func (s StageTimes) Total() time.Duration {
	return s.Synthesis + s.Place + s.Route + s.Bitgen
}

func (s StageTimes) String() string {
	return fmt.Sprintf("synth %v, place %v, route %v, bitgen %v (total %v)",
		s.Synthesis.Round(time.Microsecond), s.Place.Round(time.Microsecond),
		s.Route.Round(time.Microsecond), s.Bitgen.Round(time.Microsecond),
		s.Total().Round(time.Microsecond))
}

// Artifacts bundles the outputs of one CAD run, mirroring the files the
// Xilinx flow leaves behind.
type Artifacts struct {
	Part      *device.Part
	Netlist   *netlist.Design
	Phys      *phys.Design
	UCF       string // constraint file text
	XDL       string // ASCII physical design
	Bitstream []byte // complete bitstream
	Times     StageTimes
}

// Options tunes a flow run.
type Options struct {
	Seed   int64
	Effort float64 // placer effort (default 1.0)
	// Guide seeds placement from a previous implementation (see
	// place.Options.Guide); combine with a low Effort for incremental
	// re-implementation, the role of the Xilinx flow's guide files.
	Guide map[string]phys.Site
	// Workers is ignored (see place.Options.Workers). It remains only for
	// callers that still set it, and is never part of cache keys.
	Workers int
	// Verify runs the independent bitstream verifier (internal/bitlint) over
	// every bitstream the flow emits and fails the build on any error
	// finding. It is execution-only: it never changes what is built, so it
	// is not part of cache keys — a verified build and an unverified one are
	// byte-identical.
	Verify bool
}

// placeOptions renders the flow options as placer options.
func (o Options) placeOptions(cons *ucf.Constraints) place.Options {
	return place.Options{
		Seed:        o.Seed,
		Constraints: cons,
		Effort:      o.Effort,
		Guide:       o.Guide,
	}
}

// GuideFrom extracts a placement guide from a previous run's artifacts.
func GuideFrom(a *Artifacts) map[string]phys.Site {
	g := make(map[string]phys.Site, len(a.Phys.Cells))
	for c, s := range a.Phys.Cells {
		g[c.Name] = s
	}
	return g
}

// BaseBuild is the result of Phase 1: the base design plus its floorplan.
type BaseBuild struct {
	Artifacts
	// Regions maps each instance prefix ("u1/") to its floorplan region.
	Regions map[string]frames.Region
	// Pads maps each top-level port name to its pad.
	Pads map[string]string
	Cons *ucf.Constraints
}

// Floorplan divides the device into full-height column regions, one per
// instance, sized proportionally to the instances' logic (with headroom),
// and assigns each instance's ports to pads adjacent to its region. This is
// the paper's Phase 1 floorplanning step, automated.
func Floorplan(p *device.Part, insts []designs.Instance) (*ucf.Constraints, map[string]frames.Region, error) {
	if len(insts) == 0 {
		return nil, nil, fmt.Errorf("flow: floorplan of zero instances")
	}
	// Estimate LE demand per instance by trial-building each module.
	demand := make([]int, len(insts))
	total := 0
	for i, inst := range insts {
		trial, err := designs.Standalone(inst.Gen, "trial", inst.Prefix)
		if err != nil {
			return nil, nil, fmt.Errorf("flow: sizing %s: %w", inst.Prefix, err)
		}
		st := trial.Stats()
		demand[i] = st.LUTs + st.DFFs // pessimistic (ignores packing)
		total += demand[i]
	}
	// Column shares proportional to demand, at least 2 columns each, and
	// wide enough that the instance's data ports fit on the region's top
	// and bottom pads (2 per column).
	cols := make([]int, len(insts))
	used := 0
	for i, inst := range insts {
		ports := inst.Gen.NumInputs() + inst.Gen.NumOutputs()
		cols[i] = max(2, max(p.Cols*demand[i]/max(1, total), (ports+1)/2))
		used += cols[i]
	}
	if used > p.Cols {
		return nil, nil, fmt.Errorf("flow: %d instances need %d columns, %s has %d",
			len(insts), used, p.Name, p.Cols)
	}
	// Distribute leftover columns round-robin for headroom.
	for i := 0; used < p.Cols; i = (i + 1) % len(insts) {
		cols[i]++
		used++
	}

	cons := ucf.New()
	regions := map[string]frames.Region{}
	c := 0
	for i, inst := range insts {
		rg := frames.Region{R1: 0, C1: c, R2: p.Rows - 1, C2: c + cols[i] - 1}
		capacity := rg.CLBs() * 4
		if demand[i] > capacity {
			return nil, nil, fmt.Errorf("flow: instance %s needs %d LEs, region %v holds %d",
				inst.Prefix, demand[i], rg, capacity)
		}
		group := "AG_" + strings.TrimSuffix(inst.Prefix, "/")
		cons.AddGroup(inst.Prefix+"*", group, rg)
		regions[inst.Prefix] = rg
		c += cols[i]
	}

	// Pads: clock on the left edge; each instance's data ports alternate
	// over the top/bottom pads of its own columns.
	cons.NetLocs["clk"] = device.Pad{Edge: device.EdgeL, Index: 0}.Name()
	for _, inst := range insts {
		rg := regions[inst.Prefix]
		base := strings.TrimSuffix(inst.Prefix, "/")
		names := make([]string, 0, inst.Gen.NumInputs()+inst.Gen.NumOutputs())
		for k := 0; k < inst.Gen.NumInputs(); k++ {
			names = append(names, fmt.Sprintf("%s_in%d", base, k))
		}
		for k := 0; k < inst.Gen.NumOutputs(); k++ {
			names = append(names, fmt.Sprintf("%s_out%d", base, k))
		}
		if err := assignRegionPads(cons, p, rg, names); err != nil {
			return nil, nil, fmt.Errorf("flow: pads for %s: %w", inst.Prefix, err)
		}
	}
	return cons, regions, nil
}

// assignRegionPads spreads port names over the top and bottom pads of a
// column region.
func assignRegionPads(cons *ucf.Constraints, p *device.Part, rg frames.Region, names []string) error {
	var pads []device.Pad
	for c := rg.C1; c <= rg.C2; c++ {
		pads = append(pads, device.Pad{Edge: device.EdgeT, Index: c}, device.Pad{Edge: device.EdgeB, Index: c})
	}
	taken := map[string]bool{}
	for _, loc := range cons.NetLocs {
		taken[loc] = true
	}
	i := 0
	for _, name := range names {
		for i < len(pads) && taken[pads[i].Name()] {
			i++
		}
		if i >= len(pads) {
			return fmt.Errorf("%d ports exceed the %d pads adjacent to %v", len(names), len(pads), rg)
		}
		cons.NetLocs[name] = pads[i].Name()
		taken[pads[i].Name()] = true
	}
	return nil
}

// regionForNet builds the router constraint function for a floorplanned
// design: a net is confined to the region of the instance it belongs to
// (by cell-name or port-name prefix); clock and cross-module nets roam free.
func regionForNet(regions map[string]frames.Region) func(*netlist.Net) *frames.Region {
	lookup := func(name string) *frames.Region {
		for prefix, rg := range regions {
			base := strings.TrimSuffix(prefix, "/")
			if strings.HasPrefix(name, prefix) || strings.HasPrefix(name, base+"_") {
				r := rg
				return &r
			}
		}
		return nil
	}
	return func(n *netlist.Net) *frames.Region {
		if n.IsClock {
			return nil
		}
		var owner *frames.Region
		consider := func(name string) {
			if owner == nil {
				owner = lookup(name)
			}
		}
		if n.Driver.Cell != nil {
			consider(n.Driver.Cell.Name)
		}
		if n.DriverPort != nil {
			consider(n.DriverPort.Name)
		}
		for _, s := range n.Sinks {
			consider(s.Cell.Name)
		}
		for _, p := range n.SinkPorts {
			consider(p.Name)
		}
		return owner
	}
}

// BuildBase runs Phase 1: floorplan the instances, build the partitioned
// base design, and implement it with region-constrained place and route.
func BuildBase(ctx context.Context, p *device.Part, insts []designs.Instance, opts Options) (*BaseBuild, error) {
	cons, regions, err := Floorplan(p, insts)
	if err != nil {
		return nil, err
	}
	return BuildBaseWith(ctx, p, insts, cons, regions, opts)
}

// BuildBaseWith is BuildBase against an existing floorplan, for flows that
// must keep regions and pads stable across rebuilds (e.g. producing the
// complete per-variant bitstreams the PARBIT/JBitsDiff methodologies need).
func BuildBaseWith(ctx context.Context, p *device.Part, insts []designs.Instance, cons *ucf.Constraints,
	regions map[string]frames.Region, opts Options) (bb *BaseBuild, err error) {
	ctx, sp := obs.Start(ctx, "flow.base")
	defer func() { sp.EndErr(err) }()
	mBaseBuilds.Inc()
	a, err := job{
		part: p, mapping: &mapping{name: "base", insts: insts}, cons: cons,
		rfn: regionForNet(regions), regionFP: regionsFingerprint(regions), opts: opts,
	}.run(ctx)
	if err != nil {
		return nil, fmt.Errorf("flow: base build: %w", err)
	}
	pads := map[string]string{}
	for _, port := range a.Netlist.Ports {
		pads[port.Name] = a.Phys.Ports[port].Name()
	}
	return &BaseBuild{Artifacts: a, Regions: regions, Pads: pads, Cons: cons}, nil
}

// BuildVariant runs one Phase 2 project: implement a variant generator as a
// standalone design constrained to the base design's region for the given
// instance, inheriting the base's pad assignments so the interface stays
// fixed. The resulting XDL/UCF pair is what JPG consumes.
func BuildVariant(ctx context.Context, base *BaseBuild, prefix string, gen designs.Generator, opts Options) (*Artifacts, error) {
	rg, ok := base.Regions[prefix]
	if !ok {
		return nil, fmt.Errorf("flow: base has no instance %q", prefix)
	}
	return buildVariant(ctx, base.Part, rg, base.Pads, prefix, gen, opts)
}

// VariantSpec names one Phase 2 re-implementation for BuildVariants: a
// variant generator targeting an instance's region, with its own options
// (each spec carries its own seed, so a batch is reproducible regardless of
// how it is scheduled).
type VariantSpec struct {
	Prefix string
	Gen    designs.Generator
	Opts   Options
}

// BuildVariants farms a batch of independent Phase 2 variant
// re-implementations through the worker pool — the paper's observation that
// per-variant CAD runs are independent projects, made concrete. Results are
// collected by spec index, and each run is driven solely by its spec's seed,
// so the artifacts (XDL, UCF, bitstreams) are byte-identical to running
// BuildVariant serially over the same specs, for any worker count.
// On failure the lowest-index error is returned and the batch is discarded.
func BuildVariants(ctx context.Context, base *BaseBuild, specs []VariantSpec, popts ...parallel.Option) ([]*Artifacts, error) {
	return parallel.Map(ctx, specs, func(ctx context.Context, _ int, s VariantSpec) (*Artifacts, error) {
		return BuildVariant(ctx, base, s.Prefix, s.Gen, s.Opts)
	}, popts...)
}

// BuildFullMany implements many complete designs concurrently with the
// conventional flow — the paper's "one full CAD run per combination"
// baseline, scheduled as the embarrassingly parallel farm it is. Results
// are collected by combination index.
func BuildFullMany(ctx context.Context, p *device.Part, combos [][]designs.Instance, opts Options, popts ...parallel.Option) ([]*Artifacts, error) {
	return parallel.Map(ctx, combos, func(ctx context.Context, _ int, insts []designs.Instance) (*Artifacts, error) {
		return BuildFull(ctx, p, insts, opts)
	}, popts...)
}

// BuildVariantUCF runs a Phase 2 project using only a base design's UCF to
// recover the floorplan (region and pads) — the form the command-line tools
// use, where the base build is a set of files rather than live objects.
func BuildVariantUCF(ctx context.Context, p *device.Part, baseCons *ucf.Constraints, prefix string, gen designs.Generator, opts Options) (*Artifacts, error) {
	instBase := strings.TrimSuffix(prefix, "/")
	rg, ok := baseCons.Ranges["AG_"+instBase]
	if !ok {
		return nil, fmt.Errorf("flow: base UCF has no AREA_GROUP %q", "AG_"+instBase)
	}
	return buildVariant(ctx, p, rg, baseCons.NetLocs, prefix, gen, opts)
}

func buildVariant(ctx context.Context, part *device.Part, rg frames.Region, basePads map[string]string,
	prefix string, gen designs.Generator, opts Options) (out *Artifacts, err error) {
	instBase := strings.TrimSuffix(prefix, "/")
	ctx, sp := obs.Start(ctx, "flow.variant")
	sp.SetStr("module", prefix+gen.Name())
	defer func() { sp.EndErr(err) }()
	mVariantBuilds.Inc()

	cons := ucf.New()
	cons.AddGroup(prefix+"*", "AG_"+instBase, rg)
	// Inherit the base design's pads: clk plus the instance's data ports.
	bind := func(variantPort, basePort string) error {
		pad, ok := basePads[basePort]
		if !ok {
			return fmt.Errorf("flow: base design has no port %q", basePort)
		}
		cons.NetLocs[variantPort] = pad
		return nil
	}
	if err := bind("clk", "clk"); err != nil {
		return nil, err
	}
	for k := 0; k < gen.NumInputs(); k++ {
		if err := bind(fmt.Sprintf("in%d", k), fmt.Sprintf("%s_in%d", instBase, k)); err != nil {
			return nil, err
		}
	}
	for k := 0; k < gen.NumOutputs(); k++ {
		if err := bind(fmt.Sprintf("out%d", k), fmt.Sprintf("%s_out%d", instBase, k)); err != nil {
			return nil, err
		}
	}
	rfn, regionFP := confineTo(rg)
	m := &mapping{name: instBase + "_" + gen.Name(), insts: []designs.Instance{{Prefix: prefix, Gen: gen}}, standalone: true}
	a, err := job{part: part, mapping: m, cons: cons, rfn: rfn, regionFP: regionFP, opts: opts}.run(ctx)
	if err != nil {
		return nil, fmt.Errorf("flow: variant %s%s: %w", prefix, gen.Name(), err)
	}
	return &a, nil
}

// confineTo is a Phase 2 variant's router constraint, with its route-key
// fingerprint: every non-clock net stays in the instance region.
func confineTo(rg frames.Region) (func(*netlist.Net) *frames.Region, string) {
	return func(n *netlist.Net) *frames.Region {
		if n.IsClock {
			return nil
		}
		r := rg
		return &r
	}, "all:" + rg.String()
}

// Implement runs the implementation pipeline (place, route, bitgen) on an
// arbitrary technology-mapped netlist with optional UCF constraints — the
// generic entry point for netlists loaded from .net files. Cell-to-cell
// nets inside a constrained AREA_GROUP are routed within the group's region;
// port-connected nets roam free (a generic UCF does not plan pad adjacency
// the way the partial-reconfiguration floorplanner does).
func Implement(ctx context.Context, p *device.Part, nl *netlist.Design, cons *ucf.Constraints, opts Options) (out *Artifacts, err error) {
	rfn, regionFP := implementRegionFn(cons)
	ctx, sp := obs.Start(ctx, "flow.implement")
	defer func() { sp.EndErr(err) }()
	a, err := job{part: p, nl: nl, cons: cons, rfn: rfn, regionFP: regionFP, opts: opts}.run(ctx)
	if err != nil {
		return nil, fmt.Errorf("flow: implement: %w", err)
	}
	return &a, nil
}

// BuildFull implements a complete design with the conventional flow (no
// floorplan constraints) — the baseline the paper compares against.
func BuildFull(ctx context.Context, p *device.Part, insts []designs.Instance, opts Options) (out *Artifacts, err error) {
	ctx, sp := obs.Start(ctx, "flow.full")
	defer func() { sp.EndErr(err) }()
	mFullBuilds.Inc()
	a, err := job{part: p, mapping: &mapping{name: "full", insts: insts}, regionFP: "none", opts: opts}.run(ctx)
	if err != nil {
		return nil, fmt.Errorf("flow: full build: %w", err)
	}
	return &a, nil
}
