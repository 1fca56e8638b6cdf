package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/flow"
	"repro/internal/frames"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// editedGen wraps a generator and applies INIT edits after building, so a
// from-scratch BuildVariant produces the reference implementation of an
// edited netlist through the ordinary full CAD path.
type editedGen struct {
	designs.Generator
	edits map[string]uint16
}

func (g editedGen) Build(d *netlist.Design, prefix string, clk *netlist.Net,
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

// TestEditLoopFuzzMatchesFromScratch drives the edit->regenerate loop with a
// randomized (seeded) edit sequence and, after every edit, checks the
// incremental outputs byte-for-byte against a from-scratch rebuild: the full
// bitstream against a cold BuildVariant of the cumulatively edited design,
// and the partial against a cold GeneratePartial in a fresh project.
func TestEditLoopFuzzMatchesFromScratch(t *testing.T) {
	ctx := context.Background()
	p := device.MustByName("XCV50")
	base, err := flow.BuildBase(ctx, p, []designs.Instance{
		{Prefix: "u1/", Gen: designs.Counter{Bits: 6}},
		{Prefix: "u2/", Gen: designs.SBoxBank{N: 6, Seed: 3}},
	}, flow.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen := designs.SBoxBank{N: 6, Seed: 5}
	variant, err := flow.BuildVariant(ctx, base, "u2/", gen, flow.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := flow.NewVariantEditSession(variant, base.Regions["u2/"], flow.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	loop := NewEditLoop(proj, sess, "u2_sbox", GenerateOptions{})

	rng := rand.New(rand.NewSource(42))
	cur := variant.Netlist
	cum := map[string]uint16{} // cumulative edits, for the cold generator
	for round := 0; round < 5; round++ {
		next := cur.Clone()
		for j, n := 0, 1+rng.Intn(3); j < n; j++ {
			var name string
			var init uint16
			if rng.Intn(4) == 0 {
				name = fmt.Sprintf("u2/sq%d", rng.Intn(6))
				init = uint16(rng.Intn(2))
			} else {
				name = fmt.Sprintf("u2/sbox%d", rng.Intn(6))
				init = uint16(rng.Intn(1 << 16))
			}
			if err := next.SetInit(name, init); err != nil {
				t.Fatal(err)
			}
			cum[name] = init
		}

		res, err := loop.Edit(ctx, next)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Incremental.Stats.Path == "rebuild" {
			t.Fatalf("round %d: INIT edit took the rebuild path", round)
		}

		// From-scratch reference: full CAD run of the cumulatively edited
		// variant, then a cold partial in a fresh project.
		cold, err := flow.BuildVariant(ctx, base, "u2/", editedGen{gen, cum}, flow.Options{Seed: 2})
		if err != nil {
			t.Fatalf("round %d cold build: %v", round, err)
		}
		if !bytes.Equal(res.Incremental.Artifacts.Bitstream, cold.Bitstream) {
			t.Fatalf("round %d: incremental full bitstream differs from from-scratch build", round)
		}
		coldProj, err := NewProject(base.Bitstream)
		if err != nil {
			t.Fatal(err)
		}
		coldMod, err := coldProj.AddModule("u2_sbox_cold", cold.XDL, cold.UCF)
		if err != nil {
			t.Fatalf("round %d cold module: %v", round, err)
		}
		coldRes, err := coldProj.GeneratePartial(coldMod, GenerateOptions{})
		if err != nil {
			t.Fatalf("round %d cold partial: %v", round, err)
		}
		if !bytes.Equal(res.Partial.Bitstream, coldRes.Bitstream) {
			t.Fatalf("round %d: incremental partial differs from from-scratch GeneratePartial", round)
		}
		cur = next
	}
}

// TestGeneratePartialDelta checks the dirty-tracked delta partial: it
// carries only frames that differ from the base, and applying it to the base
// configuration reaches the same state as the full-region partial.
func TestGeneratePartialDelta(t *testing.T) {
	base, variant := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	m, err := proj.AddModule("u1_lfsr", variant.XDL, variant.UCF)
	if err != nil {
		t.Fatal(err)
	}
	full, err := proj.GeneratePartial(m, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := proj.GeneratePartial(m, GenerateOptions{Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.FARs) >= len(full.FARs) {
		t.Fatalf("delta carries %d frames, full region %d", len(delta.FARs), len(full.FARs))
	}
	if delta.FramesChanged != len(delta.FARs) {
		t.Fatalf("delta carries %d frames but only %d changed", len(delta.FARs), delta.FramesChanged)
	}
	if len(delta.Bitstream) >= len(full.Bitstream) {
		t.Fatal("delta partial is not smaller than the region partial")
	}

	viaFull := frames.New(proj.Part)
	if _, err := bitstream.Apply(viaFull, base.Bitstream); err != nil {
		t.Fatal(err)
	}
	viaDelta := viaFull.Clone()
	if _, err := bitstream.Apply(viaFull, full.Bitstream); err != nil {
		t.Fatal(err)
	}
	if _, err := bitstream.Apply(viaDelta, delta.Bitstream); err != nil {
		t.Fatal(err)
	}
	if !viaFull.Equal(viaDelta) {
		t.Fatal("delta partial reconfigures to a different state than the region partial")
	}
}

// TestEditLoopTracesPartial checks that a board-less edit generates its
// partial under the caller's context: an attached collector records the
// core.partial span as a child of the edit's core.edit span, and the
// partial's core.verify span as a child of core.partial.
func TestEditLoopTracesPartial(t *testing.T) {
	base, variant := setup(t)
	proj, err := NewProject(base.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := flow.NewVariantEditSession(variant, base.Regions["u1/"], flow.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	loop := NewEditLoop(proj, sess, "u1_lfsr", GenerateOptions{Verify: true})
	next := variant.Netlist.Clone()
	for _, c := range next.Cells {
		if c.Kind == netlist.KindLUT4 {
			if err := next.SetInit(c.Name, ^c.Init); err != nil {
				t.Fatal(err)
			}
			break
		}
	}

	col := obs.New()
	if _, err := loop.Edit(col.Attach(context.Background()), next); err != nil {
		t.Fatal(err)
	}
	var edit, partial, verify *obs.SpanRecord
	spans := col.Spans()
	for i := range spans {
		switch spans[i].Name {
		case "core.edit":
			edit = &spans[i]
		case "core.partial":
			partial = &spans[i]
		case "core.verify":
			verify = &spans[i]
		}
	}
	if edit == nil || partial == nil || verify == nil {
		t.Fatalf("collector missed a span: core.edit %v, core.partial %v, core.verify %v",
			edit != nil, partial != nil, verify != nil)
	}
	if partial.Parent != edit.ID {
		t.Fatalf("core.partial parent %d, want the core.edit span %d", partial.Parent, edit.ID)
	}
	if verify.Parent != partial.ID {
		t.Fatalf("core.verify parent %d, want the core.partial span %d", verify.Parent, partial.ID)
	}
}
