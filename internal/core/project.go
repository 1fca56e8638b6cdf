// Package core implements JPG, the paper's contribution: a partial-bitstream
// generation tool sitting at the end of the standard CAD flow. A Project is
// initialised from the base design's complete bitstream; each sub-module
// variant arrives as the XDL + UCF pair the standard tools produced, is
// replayed through the JBits layer onto the base configuration, and leaves
// as a partial bitstream covering exactly the module's configuration
// columns. The tool optionally writes the partial configuration back onto
// the base (the paper's option 2) and downloads it to a board over the
// XHWIF interface.
package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bitstream"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/jbits"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/phys"
	"repro/internal/ucf"
	"repro/internal/xdl"
	"repro/internal/xhwif"
)

// Project is a JPG project: a target device plus the base design's current
// configuration.
type Project struct {
	Part *device.Part
	// Base is the base design's configuration memory, as recovered from
	// the complete bitstream the project was created with (and updated by
	// write-backs).
	Base *frames.Memory
}

// NewProject initialises a project from a complete base bitstream; the part
// is identified from the bitstream header, and the configuration memory is
// recovered by running the bitstream through the configuration-port model.
func NewProject(baseBitstream []byte) (*Project, error) {
	part, err := bitstream.InferPart(baseBitstream)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	mem := frames.New(part)
	stats, err := bitstream.Apply(mem, baseBitstream)
	if err != nil {
		return nil, fmt.Errorf("core: base bitstream rejected: %w", err)
	}
	if stats.FramesWritten != part.TotalFrames() {
		return nil, fmt.Errorf("core: base bitstream wrote %d of %d frames; a complete bitstream is required",
			stats.FramesWritten, part.TotalFrames())
	}
	return &Project{Part: part, Base: mem}, nil
}

// NewProjectForPart initialises a project from an explicit part and
// configuration memory (for callers that already hold the device state,
// e.g. via readback).
func NewProjectForPart(part *device.Part, base *frames.Memory) (*Project, error) {
	if base.Part != part {
		return nil, fmt.Errorf("core: memory is for %s, not %s", base.Part.Name, part.Name)
	}
	return &Project{Part: part, Base: base.Clone()}, nil
}

// AddModule parses a sub-module variant's XDL and UCF texts (the outputs of
// the variant's own CAD run, paper Phase 2) into a module after containment
// analysis. The module's routes must be legal (phys.Design.CheckRoutes):
// XDL text comes from outside, and a wire driven by two nets must not reach
// configuration memory.
func (p *Project) AddModule(name, xdlText, ucfText string) (*Module, error) {
	design, err := xdl.Load(xdlText)
	if err == nil {
		err = design.CheckRoutes()
	}
	if err != nil {
		return nil, fmt.Errorf("core: module %s: %w", name, err)
	}
	if design.Part != p.Part {
		return nil, fmt.Errorf("core: module %s targets %s but the project device is %s",
			name, design.Part.Name, p.Part.Name)
	}
	cons, err := ucf.Parse(ucfText)
	if err != nil {
		return nil, fmt.Errorf("core: module %s: %w", name, err)
	}
	if err := cons.Validate(p.Part); err != nil {
		return nil, fmt.Errorf("core: module %s: %w", name, err)
	}
	m, err := newModule(name, design, cons)
	if err != nil {
		return nil, fmt.Errorf("core: module %s: %w", name, err)
	}
	mModulesAdded.Inc()
	return m, nil
}

// ModuleFromDesign builds a module from a live physical design and its
// constraints — the form the incremental edit loop uses, where every edit
// yields a fresh revision of the same module.
func (p *Project) ModuleFromDesign(name string, design *phys.Design, cons *ucf.Constraints) (*Module, error) {
	if design.Part != p.Part {
		return nil, fmt.Errorf("core: module %s targets %s but the project device is %s",
			name, design.Part.Name, p.Part.Name)
	}
	if err := cons.Validate(p.Part); err != nil {
		return nil, fmt.Errorf("core: module %s: %w", name, err)
	}
	m, err := newModule(name, design, cons)
	if err != nil {
		return nil, fmt.Errorf("core: module %s: %w", name, err)
	}
	return m, nil
}

// GenerateOptions controls partial-bitstream generation.
type GenerateOptions struct {
	// WriteBack overwrites the project's base configuration with the
	// reconfigured state (the paper's option 2). Without it the base is
	// left untouched (option 1).
	WriteBack bool
	// Strict rejects modules whose placement or routing escapes their
	// declared AREA_GROUP columns instead of widening the written region.
	Strict bool
	// Compress emits an MFWR-compressed partial bitstream (duplicate frames
	// are replicated by reference; see bitstream.WritePartialCompressed).
	// The board's configuration port must support the MFWR extension.
	Compress bool
	// Delta narrows the partial to exactly the frames whose final content
	// differs from the base configuration, found by dirty-frame tracking
	// during module replay rather than a full-memory diff — the jbitsdiff
	// core of the update instead of the paper's column-window partial. The
	// resulting stream is minimal but not relocatable: it assumes the device
	// holds the base configuration.
	Delta bool
	// Verify runs the independent bitstream verifier (internal/bitlint) over
	// the generated partial — decoding it from raw bytes, differentially
	// checking the reconstruction against the configuration-port model, and
	// requiring that it only rewrites the frames the result declares — and
	// fails the generation on any error finding. It never changes the
	// emitted bytes.
	Verify bool
}

// Result reports one partial-bitstream generation.
type Result struct {
	// Bitstream is the partial bitstream.
	Bitstream []byte
	// Region is the full-height column region the bitstream rewrites.
	Region frames.Region
	// FARs lists the frames carried by the bitstream, in device order.
	FARs []device.FAR
	// FramesChanged counts carried frames that differ from the base.
	FramesChanged int
}

// Partial-generation metrics (always on; see internal/obs): the numbers
// behind claim C2 — partial bitstream bytes proportional to the fraction of
// the device being reconfigured.
var (
	mPartials        = obs.GetCounter("core.partials_generated")
	mModulesAdded    = obs.GetCounter("core.modules_added")
	mFramesCarried   = obs.GetCounter("core.frames_carried")
	mFramesChanged   = obs.GetCounter("core.frames_changed")
	mPartialBytes    = obs.GetCounter("core.partial_bytes")
	mRegionFraction  = obs.GetHistogram("core.region_fraction_pct")
	mPartialBytesHit = obs.GetHistogram("core.partial_bytes_hist")
)

// GeneratePartial replays the module onto (a copy of) the base
// configuration and emits the partial bitstream for its columns.
func (p *Project) GeneratePartial(m *Module, opts GenerateOptions) (*Result, error) {
	return p.GeneratePartialCtx(context.Background(), m, opts)
}

// GeneratePartialCtx is GeneratePartial under a context, the service entry
// point: the generation runs as a "core.partial" span under the context's
// collector, carrying the partial's bytes, frames and changed frames. With
// Verify, the "core.verify" span is its child.
func (p *Project) GeneratePartialCtx(ctx context.Context, m *Module, opts GenerateOptions) (res *Result, err error) {
	ctx, sp := obs.Start(ctx, "core.partial")
	sp.SetStr("module", m.Name)
	defer func() { sp.EndErr(err) }()
	res, err = p.computePartial(m, opts)
	if err != nil {
		obs.CountError("partial")
		return nil, err
	}
	sp.SetInt("bytes", int64(len(res.Bitstream)))
	sp.SetInt("frames", int64(len(res.FARs)))
	sp.SetInt("changed", int64(res.FramesChanged))
	if opts.Verify {
		// With WriteBack the base has already advanced, so the partial
		// verifies as an idempotent overlay of the new base.
		if err = p.verifyResult(ctx, m, res); err != nil {
			return nil, err
		}
	}
	mPartials.Inc()
	mFramesCarried.Add(int64(len(res.FARs)))
	mFramesChanged.Add(int64(res.FramesChanged))
	mPartialBytes.Add(int64(len(res.Bitstream)))
	mPartialBytesHit.Observe(int64(len(res.Bitstream)))
	mRegionFraction.Observe(int64(100 * len(res.FARs) / p.Part.TotalFrames()))
	return res, nil
}

// computePartial replays the module onto a copy of the base and emits its
// partial. With WriteBack the copy becomes the new base, so it is a clone;
// otherwise it is scratch storage, released once the partial is written,
// since the result holds nothing of it.
func (p *Project) computePartial(m *Module, opts GenerateOptions) (*Result, error) {
	region, err := m.writeRegion(p.Part, opts.Strict)
	if err != nil {
		return nil, err
	}
	var work *frames.Memory
	if opts.WriteBack {
		work = p.Base.Clone()
	} else {
		work = p.Base.Scratch()
		defer work.Release()
	}
	if opts.Delta {
		work.StartTracking()
	}
	jb := jbits.New(work)
	// The write granularity is whole columns, so the region's columns are
	// blanked over the full device height and the module is replayed into
	// them. Floorplans must therefore give reconfigurable modules exclusive
	// columns (as on the real device, where a frame spans the full column).
	if err := jb.ClearRegion(region); err != nil {
		return nil, err
	}
	if err := m.program(jb); err != nil {
		return nil, err
	}
	fars := region.FARs(p.Part)
	if opts.Delta {
		// Dirty tracking names every frame the replay touched; keep the ones
		// whose final content actually differs from the base (a cleared and
		// identically reprogrammed frame is not part of the delta).
		var dirty []device.FAR
		for _, f := range work.DirtyFARs() {
			if !work.FrameEqual(p.Base, f) {
				dirty = append(dirty, f)
			}
		}
		work.StopTracking()
		if len(dirty) == 0 {
			return nil, fmt.Errorf("core: delta partial for %s: module changes nothing against the base", m.Name)
		}
		fars = dirty
	}
	res, err := p.emit(work, fars, opts)
	if err != nil {
		return nil, err
	}
	res.Region = region
	return res, nil
}

// emit writes the partial bitstream for fars out of work, MFWR-compressed
// when asked, counts the carried frames that differ from the base, and with
// WriteBack makes work the new base. The writer and the count walk the same
// frame runs, each one slice of both memories.
func (p *Project) emit(work *frames.Memory, fars []device.FAR, opts GenerateOptions) (*Result, error) {
	runs := bitstream.RunsForFARs(p.Part, fars)
	var bs []byte
	var err error
	if opts.Compress {
		bs, err = bitstream.WritePartialCompressed(work, runs)
	} else {
		bs, err = bitstream.WritePartial(work, runs)
	}
	if err != nil {
		return nil, err
	}
	fw := p.Part.FrameWords()
	changed := 0
	for _, run := range runs {
		got, err := work.Frames(run.Start, run.N)
		if err != nil {
			return nil, err
		}
		was, err := p.Base.Frames(run.Start, run.N)
		if err != nil {
			return nil, err
		}
		for k := 0; k < len(got); k += fw {
			if !slices.Equal(got[k:k+fw], was[k:k+fw]) {
				changed++
			}
		}
	}
	if opts.WriteBack {
		p.Base = work
	}
	return &Result{Bitstream: bs, FARs: fars, FramesChanged: changed}, nil
}

// GeneratePartialAll generates partial bitstreams for many modules
// concurrently — the multi-module analogue of GeneratePartial, for projects
// whose reconfigurable regions each have a set of variants to prepare.
// Every module replays onto its own clone of the base configuration, so the
// runs are independent; results are collected by module index and are
// byte-identical to calling GeneratePartial serially in that order, for any
// worker count. Cancelling ctx stops the batch dispatching new modules
// (in-flight generations run to completion) and returns ctx.Err().
// WriteBack is rejected: write-backs serialise on the base state by
// definition, so a concurrent batch has no meaningful order — callers that
// need option 2 semantics apply the partials one at a time.
func (p *Project) GeneratePartialAll(ctx context.Context, ms []*Module, opts GenerateOptions, popts ...parallel.Option) ([]*Result, error) {
	if opts.WriteBack {
		return nil, fmt.Errorf("core: GeneratePartialAll cannot WriteBack (write-backs are order-dependent); generate serially")
	}
	return parallel.Map(ctx, ms, func(ctx context.Context, _ int, m *Module) (*Result, error) {
		return p.GeneratePartialCtx(ctx, m, opts)
	}, popts...)
}

// GenerateAndDownload generates the partial bitstream and downloads it to a
// board over the XHWIF interface, writing back on success so the project's
// view of the base configuration tracks the device state. The write-back is
// transactional with the download: if the board rejects the stream (all
// retries exhausted, for a reliability-wrapped board), the project's base
// configuration is left exactly as it was, mirroring the device's own
// rollback — project and device never diverge. The context governs both
// steps: the generation's span and logs, and the download's deadline and
// cancellation (mid-backoff, for a reliability-wrapped board).
func (p *Project) GenerateAndDownload(ctx context.Context, m *Module, board xhwif.HWIF, opts GenerateOptions) (*Result, xhwif.DownloadStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, xhwif.DownloadStats{}, err
	}
	// Generate without writing back: the base must only advance once the
	// device has accepted the stream.
	opts.WriteBack = false
	res, err := p.GeneratePartialCtx(ctx, m, opts)
	if err != nil {
		return nil, xhwif.DownloadStats{}, err
	}
	dctx, sp := obs.Start(ctx, "core.download")
	sp.SetStr("module", m.Name)
	ds, err := board.DownloadCtx(dctx, res.Bitstream)
	sp.SetInt("bytes", int64(len(res.Bitstream)))
	sp.SetInt("frames", int64(ds.FramesWritten))
	sp.SetInt("attempts", int64(ds.Attempts))
	sp.EndErr(err)
	if err != nil {
		obs.CountError("download")
		return res, ds, fmt.Errorf("core: download: %w", err)
	}
	// Commit: replay the accepted stream onto the base, which reproduces
	// exactly the state the device now holds (the partial carries every
	// frame of its columns).
	work := p.Base.Clone()
	if _, err := bitstream.Apply(work, res.Bitstream); err != nil {
		return res, ds, fmt.Errorf("core: write-back after download: %w", err)
	}
	p.Base = work
	return res, ds, nil
}

// VerifyRegion reads the region's frames back from a board through the
// readback protocol and compares them against the project's view of the
// configuration — the "verify the update is happening on the region desired"
// step of the paper's tool, done with data instead of a GUI.
func (p *Project) VerifyRegion(rg frames.Region, board xhwif.HWIF) error {
	if !rg.Valid(p.Part) {
		return fmt.Errorf("core: verify region %v invalid for %s", rg, p.Part.Name)
	}
	fars := rg.FARs(p.Part)
	runs := bitstream.RunsForFARs(p.Part, fars)
	req, err := bitstream.WriteReadbackRequest(p.Part, runs)
	if err != nil {
		return err
	}
	raw, err := board.ExecuteReadback(req)
	if err != nil {
		return fmt.Errorf("core: readback: %w", err)
	}
	perRun, err := bitstream.ParseReadback(p.Part, runs, raw)
	if err != nil {
		return err
	}
	fw := p.Part.FrameWords()
	for ri, run := range runs {
		want, err := p.Base.Frames(run.Start, run.N)
		if err != nil {
			return fmt.Errorf("core: verify: %w", err)
		}
		got := perRun[ri]
		for w := range want {
			if got[w] != want[w] {
				far := p.Part.MustFARAt(p.Part.FrameIndex(run.Start) + w/fw)
				return fmt.Errorf("core: verify failed at %v word %d: device %#08x, expected %#08x",
					far, w%fw, got[w], want[w])
			}
		}
	}
	return nil
}

// UpdateBRAM applies fn to a copy of the base configuration (fn typically
// rewrites block-RAM content through the JBits layer) and emits a partial
// bitstream covering only the BRAM content columns fn touched — run-time
// data reconfiguration without disturbing any logic frame. WriteBack applies
// as in GeneratePartial.
func (p *Project) UpdateBRAM(opts GenerateOptions, fn func(jb *jbits.JBits) error) (*Result, error) {
	work := p.Base.Clone()
	if err := fn(jbits.New(work)); err != nil {
		return nil, err
	}
	diff, err := work.Diff(p.Base)
	if err != nil {
		return nil, err
	}
	if len(diff) == 0 {
		return nil, fmt.Errorf("core: BRAM update changed nothing")
	}
	sides := map[int]bool{}
	for _, far := range diff {
		if far.BlockType() != device.BlockBRAM {
			return nil, fmt.Errorf("core: BRAM update touched non-BRAM frame %v", far)
		}
		sides[far.Major()] = true
	}
	var fars []device.FAR
	for side := 0; side < 2; side++ {
		if sides[side] {
			fars = append(fars, p.Part.BRAMColumnFARs(side)...)
		}
	}
	return p.emit(work, fars, opts)
}
