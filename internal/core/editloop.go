package core

import (
	"context"
	"fmt"

	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/xhwif"
)

// EditLoop drives the edit -> regenerate -> download cycle the incremental
// flow exists for: a netlist edit goes through the flow's delta engine
// (splice or rebuild), the resulting physical design becomes a fresh module
// revision, and a partial bitstream for its region is generated — and, when
// a board is attached, downloaded with the project's transactional
// write-back. The per-edit cost on the INIT-only path is proportional to
// the delta plus the module's columns, never the device or a full CAD run.
type EditLoop struct {
	Project *Project
	Session *flow.EditSession
	// Name names the module revisions registered by the loop.
	Name string
	// Opts controls partial generation. WriteBack is managed by the loop:
	// forced off for generate-only edits (the base must track the device,
	// not the edit stream) and handled transactionally on downloads.
	Opts GenerateOptions
	// Board, when non-nil, receives each edit's partial bitstream.
	Board xhwif.HWIF

	edits int
}

var mEditLoopEdits = obs.GetCounter("core.editloop_edits")

// NewEditLoop couples a project to a flow edit session.
func NewEditLoop(proj *Project, sess *flow.EditSession, name string, opts GenerateOptions) *EditLoop {
	opts.WriteBack = false
	return &EditLoop{Project: proj, Session: sess, Name: name, Opts: opts}
}

// EditResult bundles one trip around the loop.
type EditResult struct {
	// Incremental is the flow engine's account of how the edit was absorbed.
	Incremental *flow.IncrementalResult
	// Module is the fresh module revision for the edited design.
	Module *Module
	// Partial is the generated (and possibly downloaded) partial bitstream.
	Partial *Result
	// Download is set when the loop has a board attached.
	Download *xhwif.DownloadStats
}

// Edit absorbs one netlist edit and regenerates the module's partial
// bitstream; with a board attached it also downloads the partial and
// advances the project base transactionally.
func (l *EditLoop) Edit(ctx context.Context, next *netlist.Design) (*EditResult, error) {
	ctx, sp := obs.Start(ctx, "core.edit")
	defer sp.End()
	mEditLoopEdits.Inc()

	ir, err := l.Session.Edit(ctx, next)
	if err != nil {
		return nil, err
	}
	sp.SetStr("path", ir.Stats.Path)

	l.edits++
	m, err := l.Project.ModuleFromDesign(fmt.Sprintf("%s@%d", l.Name, l.edits), ir.Artifacts.Phys, l.Session.Cons())
	if err != nil {
		return nil, err
	}
	out := &EditResult{Incremental: ir, Module: m}
	if l.Board == nil {
		opts := l.Opts
		opts.WriteBack = false
		if out.Partial, err = l.Project.GeneratePartialCtx(ctx, m, opts); err != nil {
			return nil, err
		}
		return out, nil
	}
	res, ds, err := l.Project.GenerateAndDownload(ctx, m, l.Board, l.Opts)
	if err != nil {
		return out, err
	}
	out.Partial, out.Download = res, &ds
	return out, nil
}
