package flow

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/netlist"
	"repro/internal/xdl"
)

// implementSBox builds a standalone SBox bank and implements it without
// constraints — a small design with plenty of INIT-editable cells.
func implementSBox(t *testing.T, seed int64) (*device.Part, *Artifacts, Options) {
	t.Helper()
	p := device.MustByName("XCV50")
	nl, err := designs.Standalone(designs.SBoxBank{N: 6, Seed: seed}, "sbox", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 4}
	a, err := Implement(context.Background(), p, nl, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, a, opts
}

func editedClone(t *testing.T, nl *netlist.Design, edits map[string]uint16) *netlist.Design {
	t.Helper()
	next := nl.Clone()
	for name, init := range edits {
		if err := next.SetInit(name, init); err != nil {
			t.Fatal(err)
		}
	}
	return next
}

func TestIncrementalSpliceByteIdentity(t *testing.T) {
	p, prev, opts := implementSBox(t, 7)
	s, err := NewEditSession(prev, nil, opts)
	if err != nil {
		t.Fatal(err)
	}

	next := editedClone(t, prev.Netlist, map[string]uint16{
		"u1/sbox0": 0xbeef,
		"u1/sbox3": 0x1234,
		"u1/sq1":   1,
	})
	res, err := s.Edit(context.Background(), next)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Path != "splice" || res.Stats.Class != "init-only" {
		t.Fatalf("path %q class %q, want splice/init-only", res.Stats.Path, res.Stats.Class)
	}
	if res.Stats.DirtyFrames == 0 {
		t.Fatalf("splice reported no dirty state: %+v", res.Stats)
	}
	if res.Delta == nil || len(res.Delta.Bitstream) == 0 {
		t.Fatal("splice produced no delta core")
	}
	if len(res.Delta.FARs) != res.Stats.DirtyFrames {
		t.Fatalf("delta carries %d frames, stats say %d dirty", len(res.Delta.FARs), res.Stats.DirtyFrames)
	}

	// The from-scratch implementation of the edited netlist must match
	// byte for byte.
	cold, err := Implement(context.Background(), p, next.Clone(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Artifacts.Bitstream, cold.Bitstream) {
		t.Fatal("spliced bitstream differs from from-scratch build")
	}
	// A held session emits no files; the spliced physical design must
	// still write the from-scratch XDL and NCD.
	text, err := xdl.Emit(res.Artifacts.Phys)
	if err != nil {
		t.Fatal(err)
	}
	if text != cold.XDL {
		t.Fatal("spliced XDL differs from from-scratch build")
	}
	if !bytes.Equal(ncdOf(t, res.Artifacts), ncdOf(t, cold)) {
		t.Fatal("spliced NCD differs from from-scratch build")
	}
}

func TestIncrementalDFFInitClearedOnSplice(t *testing.T) {
	_, prev, opts := implementSBox(t, 8)
	s, err := NewEditSession(prev, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Set a DFF init bit, then clear it again: the second splice must clear
	// the INIT control bit (the full bitgen path only ever sets bits).
	up := editedClone(t, prev.Netlist, map[string]uint16{"u1/sq2": 1})
	if _, err := s.Edit(context.Background(), up); err != nil {
		t.Fatal(err)
	}
	down := editedClone(t, up, map[string]uint16{"u1/sq2": 0})
	res, err := s.Edit(context.Background(), down)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Artifacts.Bitstream, prev.Bitstream) {
		t.Fatal("set+clear of a DFF init did not restore the original bitstream")
	}
}

func TestIncrementalEmptyEditReuses(t *testing.T) {
	_, prev, opts := implementSBox(t, 9)
	s, err := NewEditSession(prev, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Edit(context.Background(), prev.Netlist.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Path != "reuse" || res.Artifacts != prev {
		t.Fatalf("unchanged netlist took path %q", res.Stats.Path)
	}
}

func TestIncrementalStructuralRebuild(t *testing.T) {
	p, prev, opts := implementSBox(t, 10)
	s, err := NewEditSession(prev, nil, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Rewire: swap two input nets of one LUT — same cells and nets, new
	// connectivity.
	next := prev.Netlist.Clone()
	c, ok := next.Cell("u1/sbox0")
	if !ok {
		t.Fatal("no cell u1/sbox0")
	}
	c.Inputs[0], c.Inputs[1] = c.Inputs[1], c.Inputs[0]
	res, err := s.Edit(context.Background(), next)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Path != "rebuild" || res.Stats.Class != "structural" {
		t.Fatalf("path %q class %q, want rebuild/structural", res.Stats.Path, res.Stats.Class)
	}
	cold, err := Implement(context.Background(), p, next.Clone(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Artifacts.Bitstream, cold.Bitstream) {
		t.Fatal("rebuilt bitstream differs from from-scratch build")
	}
	// The session must keep splicing correctly after the rebase.
	after := editedClone(t, next, map[string]uint16{"u1/sbox1": 0x00ff})
	res2, err := s.Edit(context.Background(), after)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Path != "splice" {
		t.Fatalf("post-rebuild edit took path %q", res2.Stats.Path)
	}
	cold2, err := Implement(context.Background(), p, after.Clone(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res2.Artifacts.Bitstream, cold2.Bitstream) {
		t.Fatal("post-rebuild splice differs from from-scratch build")
	}
}

// TestIncrementalColumnCacheHits revisits a configuration (A, B, then A
// again) and requires the second visit to reproduce the first one's bytes.
func TestIncrementalColumnCacheHits(t *testing.T) {
	_, prev, opts := implementSBox(t, 11)
	s, err := NewEditSession(prev, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	a := editedClone(t, prev.Netlist, map[string]uint16{"u1/sbox2": 0xaaaa})
	b := editedClone(t, prev.Netlist, map[string]uint16{"u1/sbox2": 0x5555})
	resA1, err := s.Edit(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Edit(ctx, b.Clone()); err != nil {
		t.Fatal(err)
	}
	resA2, err := s.Edit(ctx, a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resA1.Artifacts.Bitstream, resA2.Artifacts.Bitstream) {
		t.Fatal("revisiting a configuration produced different bytes")
	}
}

// TestSpliceStreamSource: a session patches its revision's full stream only
// once rebind has seen that stream configure the session memory; a stream
// that does not (here one with a flipped data bit) is written anew by the
// first splice. Both sessions equal the from-scratch build and patch from
// then on.
func TestSpliceStreamSource(t *testing.T) {
	p, prev, opts := implementSBox(t, 12)
	ctx := context.Background()
	good, err := NewEditSession(prev, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	stale := *prev
	stale.Bitstream = bytes.Clone(prev.Bitstream)
	stale.Bitstream[len(stale.Bitstream)/2] ^= 1
	bad, err := NewEditSession(&stale, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !good.patch || bad.patch {
		t.Fatalf("sessions patch %v (bitgen's stream) and %v (a corrupted one)", good.patch, bad.patch)
	}
	next := editedClone(t, prev.Netlist, map[string]uint16{"u1/sbox4": 0x0f0f, "u1/sq0": 1})
	cold, err := Implement(ctx, p, next.Clone(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*EditSession{"patched": good, "rewritten": bad} {
		res, err := s.Edit(ctx, next.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Path != "splice" || !bytes.Equal(res.Artifacts.Bitstream, cold.Bitstream) {
			t.Fatalf("%s session: path %q, stream equals from-scratch build %v", name, res.Stats.Path,
				bytes.Equal(res.Artifacts.Bitstream, cold.Bitstream))
		}
		if !s.patch {
			t.Fatalf("%s session does not patch after a splice", name)
		}
	}
}
