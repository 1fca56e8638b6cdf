package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"time"

	"repro/internal/bitgen"
	"repro/internal/bitlint"
	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/flow"
	"repro/internal/frames"
	"repro/internal/jbitsdiff"
	"repro/internal/netlist"
	"repro/internal/phys"
	"repro/internal/ucf"
	"repro/internal/xhwif"
)

// edit-storm: E10's loop. Set-up builds the base (a 6-bit counter plus a
// bank of 8 S-boxes), one u2 variant and an edit session. One op absorbs a
// seeded edit of 1-3 LUT/FF INIT values through EditLoop.Edit (netlist diff,
// splice, module, column partial), verifies the partial with bitlint and
// downloads it, closed loop with one op in flight. Map, place and route do
// no work here.

const (
	// editRepeat is how many leading ops the exact-repeat values cover.
	editRepeat = 100
	editBank   = 8
	// editSamples is how many leading ops are rebuilt from scratch after
	// the timed part to check the incremental partial byte for byte.
	editSamples = 3
	editModule  = "u2_storm"
)

var editGen = designs.SBoxBank{N: editBank, Seed: 9}

// edit sets one cell's INIT.
type edit struct {
	name string
	init uint16
}

// editSeq is the seeded edit sequence: the same seed always yields the
// same edits, as in E10.
type editSeq struct{ rng *rand.Rand }

func newEditSeq(seed int64) *editSeq { return &editSeq{rng: rand.New(rand.NewSource(seed))} }

// next returns one op's 1-3 edits: a quarter set an S-box's output
// flip-flop, the rest rewrite an S-box LUT.
func (s *editSeq) next() []edit {
	out := make([]edit, 1+s.rng.Intn(3))
	for j := range out {
		if s.rng.Intn(4) == 0 {
			out[j] = edit{fmt.Sprintf("u2/sq%d", s.rng.Intn(editBank)), uint16(s.rng.Intn(2))}
		} else {
			out[j] = edit{fmt.Sprintf("u2/sbox%d", s.rng.Intn(editBank)), uint16(s.rng.Intn(1 << 16))}
		}
	}
	return out
}

// editStorm is the workload's set-up.
type editStorm struct {
	part    *device.Part
	base    *flow.BaseBuild
	vopts   flow.Options
	variant *flow.Artifacts
}

func buildEditStorm(ctx context.Context) (*editStorm, error) {
	part, err := device.ByName("XCV50")
	if err != nil {
		return nil, err
	}
	e := &editStorm{part: part, vopts: flow.Options{Seed: baseSeed + 1, Workers: 1}}
	e.base, err = flow.BuildBase(ctx, part, []designs.Instance{
		{Prefix: "u1/", Gen: designs.Counter{Bits: 6}},
		{Prefix: "u2/", Gen: designs.SBoxBank{N: editBank, Seed: 3}},
	}, flow.Options{Seed: baseSeed, Workers: 1})
	if err != nil {
		return nil, err
	}
	if e.variant, err = flow.BuildVariant(ctx, e.base, "u2/", editGen, e.vopts); err != nil {
		return nil, err
	}
	return e, nil
}

// editState is what the public-call ops mutate.
type editState struct {
	proj  *core.Project
	loop  *core.EditLoop
	board *xhwif.Board
	cur   *netlist.Design
	// cum holds every edit applied so far, for from-scratch rebuilds.
	cum map[string]uint16
}

func (e *editStorm) newState() (*editState, error) {
	proj, err := core.NewProject(e.base.Bitstream)
	if err != nil {
		return nil, err
	}
	sess, err := flow.NewVariantEditSession(e.variant, e.base.Regions["u2/"], e.vopts)
	if err != nil {
		return nil, err
	}
	board, err := boardWithBase(e.part, e.base.Bitstream)
	if err != nil {
		return nil, err
	}
	return &editState{
		proj:  proj,
		loop:  core.NewEditLoop(proj, sess, editModule, core.GenerateOptions{Strict: true}),
		board: board,
		cur:   e.variant.Netlist,
		cum:   map[string]uint16{},
	}, nil
}

// apply returns cur with edits applied; preparing an op's input is not
// part of the op.
func apply(cur *netlist.Design, edits []edit) (*netlist.Design, error) {
	next := cur.Clone()
	for _, ed := range edits {
		if err := next.SetInit(ed.name, ed.init); err != nil {
			return nil, err
		}
	}
	return next, nil
}

// editOut is what one op produced.
type editOut struct {
	partial, full [32]byte
	partialBytes  int
	dirty         int
	carried       int64
}

// op absorbs one edit through the public calls.
func (e *editStorm) op(ctx context.Context, st *editState, edits []edit, i int) (editOut, []byte, opTime, error) {
	next, err := apply(st.cur, edits)
	if err != nil {
		return editOut{}, nil, opTime{}, err
	}
	c := readCounters("core.frames_carried")
	sw := startWatch()
	res, err := st.loop.Edit(ctx, next)
	if err != nil {
		return editOut{}, nil, opTime{}, err
	}
	part := res.Partial.Bitstream
	if _, err := bitlint.VerifyPartial(st.proj.Base, part); err != nil {
		return editOut{}, nil, opTime{}, wrongf("op %d: partial fails bitlint: %v", i, err)
	}
	if _, err := st.board.Download(part); err != nil {
		return editOut{}, nil, opTime{}, err
	}
	dur := sw.stop()
	if p := res.Incremental.Stats.Path; p == "rebuild" {
		return editOut{}, nil, opTime{}, wrongf("op %d: an INIT-only edit took the %s path", i, p)
	}
	st.cur = next
	for _, ed := range edits {
		st.cum[ed.name] = ed.init
	}
	return editOut{
		partial: sha256.Sum256(part), full: sha256.Sum256(res.Incremental.Artifacts.Bitstream),
		partialBytes: len(part), dirty: res.Incremental.Stats.DirtyFrames,
		carried: c.delta()["core.frames_carried"],
	}, part, dur, nil
}

// editTraceState is the traced ops' state: EditLoop.Edit's parts held
// here — the session's tracked configuration memory and previous revision.
type editTraceState struct {
	proj      *core.Project
	board     *xhwif.Board
	cons      *ucf.Constraints
	mem       *frames.Memory
	prevNL    *netlist.Design
	prevPhys  *phys.Design
	revisions int
}

// newTraceState mirrors flow.NewVariantEditSession: the session memory is
// the variant's bitgen output with dirty tracking on.
func (e *editStorm) newTraceState() (*editTraceState, error) {
	proj, err := core.NewProject(e.base.Bitstream)
	if err != nil {
		return nil, err
	}
	board, err := boardWithBase(e.part, e.base.Bitstream)
	if err != nil {
		return nil, err
	}
	cons, err := ucf.Parse(e.variant.UCF)
	if err != nil {
		return nil, err
	}
	mem, err := bitgen.Generate(e.variant.Phys)
	if err != nil {
		return nil, err
	}
	mem.StartTracking()
	return &editTraceState{proj: proj, board: board, cons: cons, mem: mem,
		prevNL: e.variant.Netlist, prevPhys: e.variant.Phys}, nil
}

// tracedOp is op with EditLoop.Edit split into the calls it is made of:
// netlist diff, splice (transfer, reprogram, dirty frames, delta, full
// stream), module, partial.
func (e *editStorm) tracedOp(ctx context.Context, st *editTraceState, edits []edit, i int, l *layers) (editOut, error) {
	next, err := apply(st.prevNL, edits)
	if err != nil {
		return editOut{}, err
	}
	c := readCounters("core.frames_carried", "core.frames_changed")
	op0 := time.Now()

	t := time.Now()
	diff := netlist.Diff(st.prevNL, next)
	l.since("flow.diff_ms", t)
	if diff.Structural() {
		l.add("flow.rebuilds", 1)
		return editOut{}, wrongf("op %d: an INIT-only edit diffed as structural", i)
	}
	pd, dirty := st.prevPhys, 0
	var full []byte
	if !diff.Empty() {
		t = time.Now()
		if pd, err = phys.Transfer(st.prevPhys, next); err != nil {
			return editOut{}, err
		}
		st.mem.ResetDirty()
		if err := bitgen.ReprogramInitEdits(st.mem, pd, diff.InitEdits); err != nil {
			return editOut{}, err
		}
		if dirty = len(st.mem.DirtyFARs()); dirty > 0 {
			if _, err := jbitsdiff.FromDirty(st.mem); err != nil {
				return editOut{}, err
			}
		}
		full = bitstream.WriteFull(st.mem)
		l.since("flow.splice_ms", t)
	}

	st.revisions++
	t = time.Now()
	m, err := st.proj.ModuleFromDesign(fmt.Sprintf("%s@%d", editModule, st.revisions), pd, st.cons)
	l.since("core.module_ms", t)
	if err != nil {
		return editOut{}, err
	}

	t = time.Now()
	res, err := st.proj.GeneratePartialCtx(ctx, m, core.GenerateOptions{Strict: true})
	l.since("core.partial_ms", t)
	if err != nil {
		return editOut{}, err
	}

	t = time.Now()
	_, err = bitlint.VerifyPartial(st.proj.Base, res.Bitstream)
	l.since("bitlint.verify_ms", t)
	if err != nil {
		return editOut{}, wrongf("op %d: partial fails bitlint: %v", i, err)
	}

	t = time.Now()
	ds, err := st.board.Download(res.Bitstream)
	l.since("xhwif.download_ms", t)
	if err != nil {
		return editOut{}, err
	}
	dur := time.Since(op0)

	if !diff.Empty() {
		st.prevNL, st.prevPhys = next, pd
	}
	d := c.delta()
	l.ops++
	l.opDur += dur
	l.add("flow.dirty_frames", float64(dirty))
	l.add("core.frames_carried", float64(d["core.frames_carried"]))
	l.add("core.frames_changed", float64(d["core.frames_changed"]))
	l.add("xhwif.model_ms", ms(ds.ModelTime))
	return editOut{
		partial: sha256.Sum256(res.Bitstream), full: sha256.Sum256(full),
		partialBytes: len(res.Bitstream), dirty: dirty, carried: d["core.frames_carried"],
	}, nil
}

// editRepeats accumulates the exact-repeat values over the leading ops.
type editRepeats struct {
	n              int
	bytes          float64
	dirty, carried int64
}

func (r *editRepeats) add(out editOut) {
	r.n++
	r.bytes += float64(out.partialBytes)
	r.dirty += int64(out.dirty)
	r.carried += out.carried
}

func (r *editRepeats) values() repeats {
	return repeats{
		"partial_kb":          r.bytes / float64(r.n) / 1024,
		"flow.dirty_frames":   float64(r.dirty),
		"core.frames_carried": float64(r.carried),
	}
}

// sample is a leading op kept for the from-scratch identity check.
type sample struct {
	i       int
	cum     map[string]uint16
	partial []byte
	full    [32]byte
}

// sampled reports whether op i is one of the seed's identity samples.
func sampled(seed int64, i int) bool {
	for s := 0; s < editSamples; s++ {
		if int(mix(seed, -1-s)%editRepeat) == i {
			return true
		}
	}
	return false
}

// editedGen is the variant generator with INIT edits applied after
// building, so the conventional flow can implement an edited netlist.
type editedGen struct {
	designs.Generator
	inits map[string]uint16
}

func (g editedGen) Build(d *netlist.Design, prefix string, clk *netlist.Net, ins []*netlist.Net) ([]*netlist.Net, error) {
	outs, err := g.Generator.Build(d, prefix, clk, ins)
	if err != nil {
		return nil, err
	}
	for name, init := range g.inits {
		if err := d.SetInit(name, init); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// checkSamples rebuilds each sampled edit from scratch (BuildVariant of the
// edited netlist, then GeneratePartial) and requires byte identity.
func (e *editStorm) checkSamples(ctx context.Context, samples []sample) error {
	proj, err := core.NewProject(e.base.Bitstream)
	if err != nil {
		return err
	}
	for _, s := range samples {
		cold, err := flow.BuildVariant(ctx, e.base, "u2/", editedGen{editGen, s.cum}, e.vopts)
		if err != nil {
			return fmt.Errorf("from-scratch build of op %d: %w", s.i, err)
		}
		m, err := proj.AddModule(fmt.Sprintf("u2_cold@%d", s.i), cold.XDL, cold.UCF)
		if err != nil {
			return err
		}
		res, err := proj.GeneratePartial(m, core.GenerateOptions{Strict: true})
		if err != nil {
			return err
		}
		if !bytes.Equal(res.Bitstream, s.partial) || sha256.Sum256(cold.Bitstream) != s.full {
			return wrongf("op %d: incremental partial differs from the from-scratch build", s.i)
		}
	}
	return nil
}

func runEdit(cfg runConfig) (*report, error) {
	ctx := context.Background()
	// Set-up: base, variant and edit session, plus one untimed edit so lazy
	// state exists before timing.
	e, setupS, err := timeSetup(func() (*editStorm, error) {
		e, err := buildEditStorm(ctx)
		if err != nil {
			return nil, err
		}
		st, err := e.newState()
		if err != nil {
			return nil, err
		}
		_, _, _, err = e.op(ctx, st, newEditSeq(warmSeed).next(), 0)
		return e, err
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := newReport()
	if cfg.trace {
		r.notes["setup_s"] = setupS
		return r, e.traced(ctx, cfg, r)
	}
	r.set("setup_s", setupS, setupReps)

	st, err := e.newState()
	if err != nil {
		return nil, err
	}
	seq := newEditSeq(cfg.seed)
	var rp editRepeats
	var samples []sample
	loop, err := closedLoop(cfg.duration(), max(minSamples(0.95), editRepeat), 1, func(i int) (opTime, error) {
		out, part, dur, err := e.op(ctx, st, seq.next(), i)
		if err != nil || i >= editRepeat {
			return dur, err
		}
		rp.add(out)
		if sampled(cfg.seed, i) {
			samples = append(samples, sample{i: i, cum: maps.Clone(st.cum), partial: part, full: out.full})
		}
		return dur, nil
	})
	if err != nil {
		return r, err
	}
	if err := loop.report(r); err != nil {
		return r, err
	}
	r.set("live_heap_mb", liveHeapMB(), 1)
	if rp.n < editRepeat {
		return r, fmt.Errorf("only %d of the %d leading ops succeeded", rp.n, editRepeat)
	}
	if err := e.checkSamples(ctx, samples); err != nil {
		return r, err
	}
	return r, checkRecorded(cfg, rp.values())
}

// traced runs the same k edits on two sessions, interleaved op by op:
// through EditLoop.Edit and split into timed layer calls.
func (e *editStorm) traced(ctx context.Context, cfg runConfig, r *report) error {
	k := max(editRepeat, 30*int(math.Ceil(cfg.seconds)))
	stU, err := e.newState()
	if err != nil {
		return err
	}
	stT, err := e.newTraceState()
	if err != nil {
		return err
	}
	seq := newEditSeq(cfg.seed)
	var untraced time.Duration
	var rpU, rpT editRepeats
	var samples []sample
	l := newLayers()
	for i := 0; i < k; i++ {
		edits := seq.next()
		want, part, dur, err := e.op(ctx, stU, edits, i)
		if err != nil {
			return fmt.Errorf("untraced op %d: %w", i, err)
		}
		untraced += dur.wall
		got, err := e.tracedOp(ctx, stT, edits, i, l)
		if err != nil {
			return fmt.Errorf("traced op %d: %w", i, err)
		}
		if got.partial != want.partial || (got.dirty > 0 && got.full != want.full) {
			return wrongf("op %d: traced output bytes differ from the untraced run", i)
		}
		if i < editRepeat {
			rpU.add(want)
			rpT.add(got)
			if sampled(cfg.seed, i) {
				samples = append(samples, sample{i: i, cum: maps.Clone(stU.cum), partial: part, full: want.full})
			}
		}
	}
	r.attempted = 2 * k
	l.report(r, untraced)
	r.ratio("core.changed_ratio", l.count["core.frames_changed"], l.count["core.frames_carried"], k)
	if err := e.checkSamples(ctx, samples); err != nil {
		return err
	}
	vals := rpU.values()
	if err := vals.check(rpT.values(), "traced vs untraced"); err != nil {
		return err
	}
	r.set("partial_kb", vals["partial_kb"], rpU.n)
	return checkRecorded(cfg, vals)
}
