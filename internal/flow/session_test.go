package flow_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/flow"
	"repro/internal/netlist"
)

// TestSpliceVerifyFailureInvalidatesSession: a splice whose verification
// fails leaves the session memory holding an edit the current revision does
// not, so the next edit must rebuild rather than splice on top of it. The
// first edit fails because the previous revision's stream is corrupted (its
// CRC no longer holds); with the stream restored, the next edit rebuilds
// and equals the from-scratch build.
func TestSpliceVerifyFailureInvalidatesSession(t *testing.T) {
	ctx := context.Background()
	p := device.MustByName("XCV50")
	nl, err := designs.Standalone(designs.SBoxBank{N: 6, Seed: 7}, "sbox", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	opts := flow.Options{Seed: 4, Verify: true}
	prev, err := flow.Implement(ctx, p, nl, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := flow.NewEditSession(prev, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(nl *netlist.Design, cell string, init uint16) *netlist.Design {
		next := nl.Clone()
		if err := next.SetInit(cell, init); err != nil {
			t.Fatal(err)
		}
		return next
	}

	bs := s.PrevBitstream()
	at := len(bs) / 2 // a frame data word
	bs[at] ^= 0x40
	first := edit(prev.Netlist, "u1/sbox0", 0xbeef)
	if _, err := s.Edit(ctx, first); err == nil {
		t.Fatal("splice onto a corrupted previous stream verified")
	}
	bs[at] ^= 0x40

	second := edit(first, "u1/sbox3", 0x1234)
	res, err := s.Edit(ctx, second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Path != "rebuild" {
		t.Fatalf("edit after a failed splice took path %q, want rebuild", res.Stats.Path)
	}
	cold, err := flow.Implement(ctx, p, second.Clone(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Artifacts.Bitstream, cold.Bitstream) {
		t.Fatal("bitstream after a failed splice differs from the from-scratch build")
	}
}
