// Package jpg is the public API of the JPG reproduction: a partial-bitstream
// generation toolchain for a simulated Xilinx Virtex FPGA family, after
// "JPG - A Partial Bitstream Generation Tool to Support Partial
// Reconfiguration in Virtex FPGAs" (Raghavan & Sutton, 2002).
//
// The package re-exports the pieces a downstream user composes:
//
//   - the device model and configuration memory (Part, Memory, Region);
//   - the CAD flow (BuildBase, BuildVariant, BuildFull) over the workload
//     generator library (Counter, LFSR, RippleAdder, BinaryFIR,
//     StringMatcher, SBoxBank);
//   - the JPG tool itself (NewProject, Project.AddModule,
//     Project.GeneratePartial) consuming XDL/UCF pairs;
//   - a simulated board (NewBoard) for downloads and readback;
//   - the PARBIT and JBitsDiff baselines;
//   - bitstream utilities (WriteFull, WritePartialForFARs, Apply, Dump).
//
// See examples/ for runnable end-to-end scenarios and DESIGN.md for the
// system inventory.
package jpg

import (
	"context"
	"fmt"
	"repro/internal/bitfile"
	"repro/internal/bitstream"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/extract"
	"repro/internal/flow"
	"repro/internal/frames"

	"repro/internal/jbits"
	"repro/internal/jbitsdiff"
	"repro/internal/jroute"
	"repro/internal/netlist"
	"repro/internal/parallel"
	"repro/internal/parbit"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/ucf"
	"repro/internal/xhwif"
)

// Device model.
type (
	// Part describes one Virtex family member (XCV50..XCV1000).
	Part = device.Part
	// Memory is a device's configuration memory (all frames).
	Memory = frames.Memory
	// Region is a rectangular CLB region (0-based, inclusive).
	Region = frames.Region
	// FAR addresses one configuration frame.
	FAR = device.FAR
)

// PartByName returns the named Virtex part (e.g. "XCV300").
func PartByName(name string) (*Part, error) { return device.ByName(name) }

// Parts returns the family catalog, smallest to largest.
func Parts() []*Part { return device.All() }

// NewMemory returns blank configuration memory for a part.
func NewMemory(p *Part) *Memory { return frames.New(p) }

// CAD flow and workloads.
type (
	// Generator creates one parameterized logic module.
	Generator = designs.Generator
	// Instance names one module of a partitioned base design.
	Instance = designs.Instance
	// FlowOptions tunes the CAD flow (seed, placer effort).
	FlowOptions = flow.Options
	// BaseBuild is a Phase-1 result: base design, floorplan, artifacts.
	BaseBuild = flow.BaseBuild
	// Artifacts bundles one CAD run's outputs (netlist, physical design,
	// XDL, UCF, bitstream).
	Artifacts = flow.Artifacts

	// The workload generator library.
	Counter       = designs.Counter
	LFSR          = designs.LFSR
	RippleAdder   = designs.RippleAdder
	BinaryFIR     = designs.BinaryFIR
	StringMatcher = designs.StringMatcher
	SBoxBank      = designs.SBoxBank
)

// BuildBase implements a floorplanned, partitioned base design (Phase 1).
// The context carries tracing and the build cache (see WithCache); neither
// changes results.
func BuildBase(ctx context.Context, p *Part, insts []Instance, opts FlowOptions) (*BaseBuild, error) {
	return flow.BuildBase(ctx, p, insts, opts)
}

// BuildVariant implements one sub-module variant as its own constrained
// project (Phase 2), producing the XDL/UCF pair JPG consumes.
func BuildVariant(ctx context.Context, base *BaseBuild, prefix string, gen Generator, opts FlowOptions) (*Artifacts, error) {
	return flow.BuildVariant(ctx, base, prefix, gen, opts)
}

// BuildFull implements a complete design with the conventional flow.
func BuildFull(ctx context.Context, p *Part, insts []Instance, opts FlowOptions) (*Artifacts, error) {
	return flow.BuildFull(ctx, p, insts, opts)
}

// Concurrent farms. Per-variant CAD runs are independent projects, so
// batches dispatch through a bounded worker pool (all cores by default, or
// $JPG_WORKERS); results are collected by index and are byte-identical to
// serial execution for any worker count.
type (
	// VariantSpec names one Phase-2 re-implementation for BuildVariants.
	VariantSpec = flow.VariantSpec
	// WorkerOption tunes a concurrent batch (see WithWorkers).
	WorkerOption = parallel.Option
)

// WithWorkers bounds a batch to n concurrent workers (0 = all cores, 1 =
// strictly serial).
func WithWorkers(n int) WorkerOption { return parallel.WithWorkers(n) }

// Build cache (see internal/cache). A Cache memoizes CAD stage results —
// map, place, route, bitgen, XDL emission — under content-addressed keys
// derived from every input the stage consumes, so repeated identical work
// is fetched instead of recomputed. Caching never changes results:
// artifacts are byte-identical with the cache cold, warm or absent, at any
// worker count. Attach one to a context with WithCache for the Build*
// functions.
type (
	// Cache is a bounded, concurrency-safe content-addressed store with an
	// optional on-disk tier.
	Cache = cache.Cache
	// CacheOptions bounds a cache (entries, bytes, disk directory).
	CacheOptions = cache.Options
	// CacheStats is a point-in-time cache summary (per-stage hit rates).
	CacheStats = cache.Stats
)

// NewCache returns a build cache (zero options select the defaults: 4096
// entries, 256 MiB, memory-only unless Dir is set).
func NewCache(o CacheOptions) *Cache { return cache.New(o) }

// WithCache attaches a build cache to a context; the CAD flow consults it
// for every stage run under that context.
func WithCache(ctx context.Context, c *Cache) context.Context { return cache.With(ctx, c) }

// BuildVariants implements a batch of sub-module variants concurrently
// (Phase 2 as a farm). Project.GeneratePartialAll is the matching
// concurrent partial-bitstream generator.
func BuildVariants(ctx context.Context, base *BaseBuild, specs []VariantSpec, opts ...WorkerOption) ([]*Artifacts, error) {
	return flow.BuildVariants(ctx, base, specs, opts...)
}

// BuildFullMany implements many complete designs concurrently with the
// conventional flow (the paper's one-run-per-combination baseline).
func BuildFullMany(ctx context.Context, p *Part, combos [][]Instance, opts FlowOptions, popts ...WorkerOption) ([]*Artifacts, error) {
	return flow.BuildFullMany(ctx, p, combos, opts, popts...)
}

// The JPG tool.
type (
	// Project is a JPG project over a base design's bitstream.
	Project = core.Project
	// ProjectModule is a registered sub-module variant.
	ProjectModule = core.Module
	// GenerateOptions controls partial-bitstream generation.
	GenerateOptions = core.GenerateOptions
	// PartialResult reports one generated partial bitstream.
	PartialResult = core.Result
)

// NewProject initialises a JPG project from a complete base bitstream.
func NewProject(baseBitstream []byte) (*Project, error) { return core.NewProject(baseBitstream) }

// NewProjectForPart initialises a project from explicit device state.
func NewProjectForPart(p *Part, base *Memory) (*Project, error) {
	return core.NewProjectForPart(p, base)
}

// Board simulation.
type (
	// Board is a simulated FPGA board with a SelectMAP-timed config port.
	Board = xhwif.Board
	// HWIF is the board-access interface (the paper's XHWIF).
	HWIF = xhwif.HWIF
	// DownloadStats reports one bitstream download.
	DownloadStats = xhwif.DownloadStats
)

// NewBoard returns a board holding a blank device of the given part.
func NewBoard(p *Part) *Board { return xhwif.NewBoard(p) }

// Bitstream utilities.

// WriteFull serialises configuration memory as a complete bitstream.
func WriteFull(mem *Memory) []byte { return bitstream.WriteFull(mem) }

// WritePartialForFARs serialises only the given frames as a partial
// bitstream.
func WritePartialForFARs(mem *Memory, fars []FAR) ([]byte, error) {
	return bitstream.WritePartialForFARs(mem, fars)
}

// Apply runs a bitstream through the configuration-port model into mem.
func Apply(mem *Memory, bs []byte) (bitstream.Stats, error) { return bitstream.Apply(mem, bs) }

// DumpBitstream renders a bitstream's packet structure as text.
func DumpBitstream(bs []byte) (string, error) { return bitstream.Dump(bs) }

// InferPart identifies the part a bitstream targets.
func InferPart(bs []byte) (*Part, error) { return bitstream.InferPart(bs) }

// BitfileHeader is the metadata header of a Xilinx .bit container.
type BitfileHeader = bitfile.Header

// WrapBitfile encloses raw configuration data in a .bit container.
func WrapBitfile(h BitfileHeader, raw []byte) []byte { return bitfile.Wrap(h, raw) }

// UnwrapBitfile returns the raw configuration data from a possibly-wrapped
// file (raw streams pass through).
func UnwrapBitfile(file []byte) ([]byte, BitfileHeader, error) { return bitfile.Unwrap(file) }

// Baselines.
type (
	// ParbitOptions mirrors PARBIT's options file.
	ParbitOptions = parbit.Options
	// DiffCore is a JBitsDiff-extracted difference core.
	DiffCore = jbitsdiff.Core
)

// ParbitTransform extracts a column-window partial bitstream from a complete
// bitstream (the PARBIT baseline).
func ParbitTransform(completeBitstream []byte, o ParbitOptions) ([]byte, error) {
	return parbit.Transform(completeBitstream, o)
}

// JBitsDiffExtract diffs two complete bitstreams into a core (the JBitsDiff
// baseline).
func JBitsDiffExtract(reference, withCore []byte) (*DiffCore, error) {
	return jbitsdiff.Extract(reference, withCore)
}

// Netlist is a technology-mapped logical design.
type Netlist = netlist.Design

// Implement places, routes and bitgens an arbitrary netlist with optional
// UCF constraint text.
func Implement(ctx context.Context, p *Part, nl *Netlist, ucfText string, opts FlowOptions) (*Artifacts, error) {
	var cons *ucf.Constraints
	if ucfText != "" {
		var err error
		if cons, err = ucf.Parse(ucfText); err != nil {
			return nil, err
		}
	}
	return flow.Implement(ctx, p, nl, cons, opts)
}

// Delta-driven incremental flow: absorb netlist edits by diffing against the
// previous revision and splicing the untouched placement/routing/frames.
type (
	// NetlistDiff classifies a structural diff between two netlist
	// revisions ("empty", "init-only", "structural").
	NetlistDiff = netlist.DesignDiff
	// EditSession is the stateful incremental engine over an edit stream.
	EditSession = flow.EditSession
	// IncrementalResult is the outcome of absorbing one edit.
	IncrementalResult = flow.IncrementalResult
)

// DiffNetlists diffs two netlist revisions.
func DiffNetlists(prev, next *Netlist) *NetlistDiff { return netlist.Diff(prev, next) }

// NewEditSession starts an incremental session from a previous
// implementation, with optional UCF constraint text (which must be what prev
// was implemented with).
func NewEditSession(prev *Artifacts, ucfText string, opts FlowOptions) (*EditSession, error) {
	var cons *ucf.Constraints
	if ucfText != "" {
		var err error
		if cons, err = ucf.Parse(ucfText); err != nil {
			return nil, err
		}
	}
	return flow.NewEditSession(prev, cons, opts)
}

// JBits is the low-level resource API over configuration memory (LUTs,
// slice control, PIPs, pads, block-RAM content).
type JBits = jbits.JBits

// NewJBits returns a JBits view over a configuration memory.
func NewJBits(mem *Memory) *JBits { return jbits.New(mem) }

// BRAMWordsPerBlock is the addressable capacity of one block RAM (256 x 16).
const BRAMWordsPerBlock = device.BRAMWordsPerBlock

// Run-time routing (the JRoute layer of the JBits ecosystem).
type (
	// RuntimeRouter routes individual connections on live configuration
	// state, claiming only free resources.
	RuntimeRouter = jroute.Router
	// NodeID identifies a routing node on a part.
	NodeID = device.NodeID
	// PIP is one programmable interconnect point.
	PIP = device.PIP
)

// NewRuntimeRouter scans a configuration and returns a router over its free
// resources.
func NewRuntimeRouter(mem *Memory) (*RuntimeRouter, error) { return jroute.New(mem) }

// CellOutputNode returns the routing node a placed cell drives in a CAD
// run's physical design (e.g. to probe an internal signal at run time).
func CellOutputNode(a *Artifacts, cellName string) (NodeID, error) {
	c, ok := a.Netlist.Cell(cellName)
	if !ok {
		return 0, fmt.Errorf("jpg: no cell %q in design %q", cellName, a.Netlist.Name)
	}
	return a.Phys.OutputNode(c)
}

// PadOutputNode returns the fabric-driven node of a named pad (the
// destination for routing a signal off-chip).
func PadOutputNode(p *Part, padName string) (NodeID, error) {
	pd, err := device.ParsePad(padName)
	if err != nil {
		return 0, err
	}
	if !p.ValidPad(pd) {
		return 0, fmt.Errorf("jpg: pad %q not on %s", padName, p.Name)
	}
	return p.PadNodeO(pd), nil
}

// EnableOutputPad marks a pad in-use as an output in the configuration, so
// a run-time-routed probe appears as a device output.
func EnableOutputPad(mem *Memory, padName string) error {
	pd, err := device.ParsePad(padName)
	if err != nil {
		return err
	}
	jb := jbits.New(mem)
	if err := jb.SetPadMode(pd, device.PadCtlInUse, true); err != nil {
		return err
	}
	return jb.SetPadMode(pd, device.PadCtlOutEn, true)
}

// DiffFrames returns the frames differing between two configurations, the
// raw material for a minimal patch bitstream.
func DiffFrames(a, b *Memory) ([]FAR, error) { return a.Diff(b) }

// ExtractedDesign is a netlist recovered from configuration memory.
type ExtractedDesign = extract.Design

// ExtractDesign reconstructs the logical design configured in mem (the
// inverse of bitgen; useful for verification and readback analysis).
func ExtractDesign(mem *Memory) (*ExtractedDesign, error) { return extract.FromMemory(mem) }

// Simulator is a cycle-based functional simulator for netlists.
type Simulator = sim.Simulator

// TimingAnalysis is a static timing analysis result.
type TimingAnalysis = timing.Analysis

// AnalyzeTiming runs static timing analysis over a CAD run's routed design.
func AnalyzeTiming(a *Artifacts) (*TimingAnalysis, error) { return timing.Analyze(a.Phys) }

// SimulateExtracted builds a simulator for a design extracted from a device,
// so examples and tests can observe the (simulated) hardware behave. Port
// names are pad names (e.g. "P_T5"); map design ports through the base
// build's Pads table.
func SimulateExtracted(d *ExtractedDesign) (*Simulator, error) { return sim.New(d.Netlist) }
