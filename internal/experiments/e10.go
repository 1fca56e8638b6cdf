package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// initEditGen wraps a generator and applies INIT edits after building, so the
// conventional flow can implement an edited netlist from scratch.
type initEditGen struct {
	designs.Generator
	edits map[string]uint16
}

func (g initEditGen) Build(d *netlist.Design, prefix string, clk *netlist.Net,
	ins []*netlist.Net) ([]*netlist.Net, error) {
	outs, err := g.Generator.Build(d, prefix, clk, ins)
	if err != nil {
		return nil, err
	}
	for name, init := range g.edits {
		if err := d.SetInit(name, init); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// E10 measures the delta-driven incremental flow (§2.1's small-change case,
// taken to its limit): a storm of LUT/FF INIT edits inside one region,
// comparing edit->partial latency of a full conventional re-run per edit
// against the incremental engine's diff+splice, with byte-identity checked
// against the from-scratch build after every edit. With cfg.Verify both
// paths also run bitlint over what they emit; that time is read off the
// verify-time histogram and left out of each path's timer, so the verdict
// compares edit->partial work only, and a note reports it per edit.
func E10(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	part, err := cfg.cadPart()
	if err != nil {
		return nil, err
	}
	nBank, edits := 8, 24
	if cfg.Quick {
		nBank, edits = 6, 6
	}

	base, err := flow.BuildBase(ctx, part, []designs.Instance{
		{Prefix: "u1/", Gen: designs.Counter{Bits: 6}},
		{Prefix: "u2/", Gen: designs.SBoxBank{N: nBank, Seed: 3}},
	}, cfg.flowOpts(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("E10 base: %w", err)
	}
	gen := designs.SBoxBank{N: nBank, Seed: 9}
	vopts := cfg.flowOpts(cfg.Seed + 1)
	variant, err := flow.BuildVariant(ctx, base, "u2/", gen, vopts)
	if err != nil {
		return nil, fmt.Errorf("E10 variant: %w", err)
	}

	// Incremental side: one project + edit session, kept alive for the storm.
	proj, err := core.NewProject(base.Bitstream)
	if err != nil {
		return nil, err
	}
	sess, err := flow.NewVariantEditSession(variant, base.Regions["u2/"], vopts)
	if err != nil {
		return nil, err
	}
	loop := core.NewEditLoop(proj, sess, "u2_storm", cfg.genOpts(core.GenerateOptions{}))

	// Conventional side: every edit re-runs the full variant CAD flow and
	// regenerates the partial in a fresh project, as if no previous result
	// existed.
	coldProj, err := core.NewProject(base.Bitstream)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 100))
	cur := variant.Netlist
	cum := map[string]uint16{}
	identical := true
	var splices, reuses, rebuilds, deltaFrames int
	verifyNS := obs.GetHistogram("verify_ns")
	var coldTotal, incrTotal, coldVerify, incrVerify time.Duration
	for i := 0; i < edits; i++ {
		next := cur.Clone()
		for j, n := 0, 1+rng.Intn(3); j < n; j++ {
			var name string
			var init uint16
			if rng.Intn(4) == 0 {
				name = fmt.Sprintf("u2/sq%d", rng.Intn(nBank))
				init = uint16(rng.Intn(2))
			} else {
				name = fmt.Sprintf("u2/sbox%d", rng.Intn(nBank))
				init = uint16(rng.Intn(1 << 16))
			}
			if err := next.SetInit(name, init); err != nil {
				return nil, err
			}
			cum[name] = init
		}

		v0, t0 := verifyNS.Sum(), time.Now()
		res, err := loop.Edit(ctx, next)
		if err != nil {
			return nil, fmt.Errorf("E10 edit %d: %w", i, err)
		}
		v := time.Duration(verifyNS.Sum() - v0)
		incrTotal += time.Since(t0) - v
		incrVerify += v
		switch res.Incremental.Stats.Path {
		case "splice":
			splices++
		case "reuse":
			reuses++
		default:
			rebuilds++
		}
		deltaFrames += res.Incremental.Stats.DirtyFrames

		v0, t0 = verifyNS.Sum(), time.Now()
		cold, err := flow.BuildVariant(ctx, base, "u2/", initEditGen{gen, cum}, vopts)
		if err != nil {
			return nil, fmt.Errorf("E10 cold build %d: %w", i, err)
		}
		coldMod, err := coldProj.AddModule(fmt.Sprintf("u2_cold@%d", i), cold.XDL, cold.UCF)
		if err != nil {
			return nil, err
		}
		coldRes, err := coldProj.GeneratePartialCtx(ctx, coldMod, cfg.genOpts(core.GenerateOptions{}))
		if err != nil {
			return nil, err
		}
		v = time.Duration(verifyNS.Sum() - v0)
		coldTotal += time.Since(t0) - v
		coldVerify += v

		if !bytes.Equal(res.Partial.Bitstream, coldRes.Bitstream) ||
			!bytes.Equal(res.Incremental.Artifacts.Bitstream, cold.Bitstream) {
			identical = false
		}
		cur = next
	}

	var speedup float64
	if incrTotal > 0 {
		speedup = float64(coldTotal) / float64(incrTotal)
	}

	t := &Table{
		ID:    "E10",
		Title: fmt.Sprintf("edit storm on %s: %d INIT edits in one region", part.Name, edits),
		Claim: "a netlist edit that changes only LUT/FF INITs needs no new CAD run: diffing " +
			"and splicing the previous implementation yields the same partial bitstream at a " +
			"fraction of the edit->partial latency",
		Columns: []string{"flow", "edits", "total", "per edit", "identical"},
	}
	t.AddRow("conventional re-run", edits, coldTotal.Round(time.Millisecond).String(),
		(coldTotal / time.Duration(edits)).Round(time.Microsecond).String(), "-")
	t.AddRow("incremental splice", edits, incrTotal.Round(time.Millisecond).String(),
		(incrTotal / time.Duration(edits)).Round(time.Microsecond).String(),
		fmt.Sprint(identical))

	t.Note("edit->partial speedup = %.1fx (%d spliced / %d reused / %d rebuilt of %d edits, %d dirty frames total)",
		speedup, splices, reuses, rebuilds, edits, deltaFrames)
	if cfg.Verify {
		perEdit := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(edits) }
		t.Note("verification (bitlint), not in the times above: %.2f ms per edit conventional, %.2f ms incremental",
			perEdit(coldVerify), perEdit(incrVerify))
	}
	switch {
	case !identical:
		t.Note("VERDICT: FAIL (incremental output diverged from the from-scratch build)")
	case rebuilds > 0:
		t.Note("VERDICT: FAIL (an INIT-only edit fell back to a rebuild)")
	case speedup < 5:
		t.Note("VERDICT: MIXED (speedup %.1fx below the 5x bar on this host)", speedup)
	default:
		t.Note("VERDICT: PASS")
	}
	return t, nil
}
