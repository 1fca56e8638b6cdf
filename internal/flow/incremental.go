package flow

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitgen"
	"repro/internal/bitstream"
	"repro/internal/frames"
	"repro/internal/jbitsdiff"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/ucf"
)

// The incremental flow: instead of re-running map/place/route/bitgen for an
// edited netlist, diff the edit against the previous revision and propagate
// only the delta. An INIT-only edit (LUT truth tables, flip-flop reset
// values — the edits the paper's run-time parameterisable cores make) leaves
// placement and routing untouched, because neither stage consults Init: the
// previous physical solution is transferred onto the edited netlist by name,
// only the edited cells' frames are reprogrammed, and dirty-frame tracking
// names exactly the touched frame runs for partial emission — no full-memory
// diff. Anything placement or routing could observe falls back to a full
// deterministic rebuild, so results are byte-identical to the from-scratch
// flow on every path.

// Incremental-flow metrics (always on; see internal/obs).
var (
	mIncrEdits    = obs.GetCounter("flow.incremental_edits")
	mIncrSplices  = obs.GetCounter("flow.incremental_splices")
	mIncrRebuilds = obs.GetCounter("flow.incremental_rebuilds")
	mIncrNS       = obs.GetHistogram("flow.incremental_ns")
	mIncrDirty    = obs.GetHistogram("flow.incremental_dirty_frames")
)

// IncrementalStats describes how one edit was absorbed.
type IncrementalStats struct {
	// Class is the diff classification: "empty", "init-only", "structural".
	Class string
	// Path is what the engine did: "reuse" (no change), "splice" (transfer +
	// delta reprogram) or "rebuild" (full deterministic re-run).
	Path string
	// InitEdits counts the edited cells on the splice path.
	InitEdits int
	// DirtyFrames counts the frames a splice touched: exactly the frames
	// whose content changed.
	DirtyFrames int
}

// IncrementalResult is the outcome of absorbing one edit.
type IncrementalResult struct {
	// Artifacts is the implementation of the edited netlist, byte-identical
	// to what the from-scratch flow would produce for it.
	Artifacts *Artifacts
	// Delta, when non-nil, is the minimal partial bitstream carrying exactly
	// the frames whose content changed relative to the previous revision —
	// the jbitsdiff core of the edit. It is nil when nothing changed and
	// after a structural rebuild of a first-time structure.
	Delta *jbitsdiff.Core
	Stats IncrementalStats
}

// EditSession is the stateful incremental engine: it holds the previous
// revision's artifacts plus its live configuration memory (with dirty-frame
// tracking enabled) and absorbs a stream of netlist edits. Sessions are not
// safe for concurrent use.
type EditSession struct {
	// job is what a structural edit is rebuilt with (its netlist aside).
	job

	prev *Artifacts
	// mem is the bitgen output for prev.Phys, tracked so splices record
	// exactly the frames they touch.
	mem   *frames.Memory
	valid bool
}

// NewEditSession starts an incremental session from a previous
// implementation, with Implement's region semantics (cell-to-cell nets
// confined to their AREA_GROUP region). cons may be nil for unconstrained
// designs; it must be the constraints prev was built with.
func NewEditSession(prev *Artifacts, cons *ucf.Constraints, opts Options) (*EditSession, error) {
	rfn, regionFP := implementRegionFn(cons)
	return newEditSession(prev, cons, rfn, regionFP, opts)
}

// NewVariantEditSession starts an incremental session from a Phase 2 variant
// build (BuildVariant / BuildVariantUCF), whose router confines every
// non-clock net to the instance region. The constraints are recovered from
// the artifacts' UCF text.
func NewVariantEditSession(prev *Artifacts, rg frames.Region, opts Options) (*EditSession, error) {
	cons, err := ucf.Parse(prev.UCF)
	if err != nil {
		return nil, fmt.Errorf("flow: edit session: recover UCF: %w", err)
	}
	rfn, regionFP := confineTo(rg)
	return newEditSession(prev, cons, rfn, regionFP, opts)
}

func newEditSession(prev *Artifacts, cons *ucf.Constraints, rfn func(*netlist.Net) *frames.Region,
	regionFP string, opts Options) (*EditSession, error) {
	if prev == nil || prev.Phys == nil || prev.Netlist == nil {
		return nil, fmt.Errorf("flow: edit session needs implemented artifacts")
	}
	s := &EditSession{
		job:  job{part: prev.Part, cons: cons, rfn: rfn, regionFP: regionFP, opts: opts},
		prev: prev,
	}
	if err := s.rebind(prev); err != nil {
		return nil, err
	}
	return s, nil
}

// rebind (re)derives the session's memory from a freshly implemented
// revision.
func (s *EditSession) rebind(a *Artifacts) error {
	mem, err := bitgen.Generate(a.Phys)
	if err != nil {
		return fmt.Errorf("flow: edit session: regenerate frames: %w", err)
	}
	mem.StartTracking()
	s.prev = a
	s.mem = mem
	s.valid = true
	return nil
}

// Cons returns the constraints the session implements against.
func (s *EditSession) Cons() *ucf.Constraints { return s.cons }

// Edit absorbs one netlist edit: diff next against the current revision,
// splice an INIT-only edit, rebuild anything structural. On success the
// session advances to next as its current revision.
func (s *EditSession) Edit(ctx context.Context, next *netlist.Design) (*IncrementalResult, error) {
	ctx, sp := obs.Start(ctx, "flow.incremental")
	defer sp.End()
	mIncrEdits.Inc()
	t0 := time.Now()
	defer func() { mIncrNS.Observe(time.Since(t0).Nanoseconds()) }()

	_, dsp := obs.Start(ctx, "diff")
	diff := netlist.Diff(s.prev.Netlist, next)
	dsp.SetStr("class", diff.Class())
	dsp.End()
	sp.SetStr("class", diff.Class())

	switch {
	case !s.valid || diff.Structural():
		return s.rebuild(ctx, next, diff)
	case diff.Empty():
		return &IncrementalResult{
			Artifacts: s.prev,
			Stats:     IncrementalStats{Class: diff.Class(), Path: "reuse"},
		}, nil
	default:
		return s.splice(ctx, next, diff)
	}
}

// splice absorbs an INIT-only edit: transfer the previous placement and
// routes onto the edited netlist, reprogram only the edited cells' frames,
// and package the dirty frames as the delta.
func (s *EditSession) splice(ctx context.Context, next *netlist.Design, diff *netlist.DesignDiff) (*IncrementalResult, error) {
	t0 := time.Now()
	ctx, sp := obs.Start(ctx, "splice")
	sp.SetInt("edits", int64(len(diff.InitEdits)))
	defer sp.End()
	mIncrSplices.Inc()

	pd, err := phys.Transfer(s.prev.Phys, next)
	if err != nil {
		// A diff the transfer disagrees with (defensive; should not happen)
		// is handled like any structural edit.
		return s.rebuild(ctx, next, diff)
	}

	s.mem.ResetDirty()
	if err := bitgen.ReprogramInitEdits(s.mem, pd, diff.InitEdits); err != nil {
		s.valid = false // memory may hold a partial edit
		return nil, err
	}
	dirty := s.mem.DirtyFARs()
	mIncrDirty.Observe(int64(len(dirty)))
	sp.SetInt("dirty_frames", int64(len(dirty)))

	var delta *jbitsdiff.Core
	if len(dirty) > 0 {
		if delta, err = jbitsdiff.FromDirty(s.mem); err != nil {
			s.valid = false
			return nil, err
		}
	}

	a := &Artifacts{
		Part:    s.part,
		Netlist: next,
		Phys:    pd,
		UCF:     s.prev.UCF,
		Times:   StageTimes{},
	}
	a.Bitstream = bitstream.WriteFull(s.mem)
	a.Times.Bitgen = time.Since(t0)
	if delta == nil || len(s.prev.Bitstream) == 0 {
		err = verifyBitstream(ctx, s.opts, a.Bitstream)
	} else {
		// Splice-equals-rebuild: the previous full bitstream plus this
		// delta must land on exactly the new full bitstream's state.
		// VerifySplice decodes and port-checks the new full bitstream too,
		// so it is the only check the new stream needs.
		err = verifySplice(ctx, s.opts, s.prev.Bitstream, delta.Bitstream, a.Bitstream)
	}
	if err != nil {
		return nil, err
	}
	s.prev = a

	return &IncrementalResult{
		Artifacts: a,
		Delta:     delta,
		Stats: IncrementalStats{
			Class:       diff.Class(),
			Path:        "splice",
			InitEdits:   len(diff.InitEdits),
			DirtyFrames: len(dirty),
		},
	}, nil
}

// rebuild absorbs a structural edit by re-running the full deterministic
// stage sequence (cache-accelerated when a cache is attached) and rebasing
// the session on the result. The delta against the previous configuration
// is still reported when one exists.
func (s *EditSession) rebuild(ctx context.Context, next *netlist.Design, diff *netlist.DesignDiff) (*IncrementalResult, error) {
	ctx, sp := obs.Start(ctx, "rebuild")
	defer sp.End()
	mIncrRebuilds.Inc()

	j := s.job
	j.nl = next
	a, err := j.run(ctx)
	if err != nil {
		return nil, fmt.Errorf("flow: incremental rebuild: %w", err)
	}
	oldMem := s.mem
	if err := s.rebind(&a); err != nil {
		return nil, err
	}
	var delta *jbitsdiff.Core
	if oldMem != nil {
		// Best-effort: a full-memory diff (the rebuild already dwarfs it).
		if core, err := jbitsdiff.FromMemories(oldMem, s.mem); err == nil {
			delta = core
		}
	}
	return &IncrementalResult{
		Artifacts: s.prev,
		Delta:     delta,
		Stats:     IncrementalStats{Class: diff.Class(), Path: "rebuild"},
	}, nil
}

// implementRegionFn derives Implement's router-constraint function and its
// cache fingerprint from UCF constraints (see Implement).
func implementRegionFn(cons *ucf.Constraints) (func(*netlist.Net) *frames.Region, string) {
	if cons == nil || len(cons.Ranges) == 0 {
		return nil, "none"
	}
	rfn := func(n *netlist.Net) *frames.Region {
		if n.IsClock || n.Driver.Cell == nil || n.DriverPort != nil || len(n.SinkPorts) > 0 {
			return nil
		}
		if rg, ok := cons.RegionFor(n.Driver.Cell.Name); ok {
			r := rg
			return &r
		}
		return nil
	}
	return rfn, "groups"
}
