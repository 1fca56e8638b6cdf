package flow

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/bitlint"
	"repro/internal/bitstream"
	"repro/internal/designs"
	"repro/internal/device"
)

// TestVerifyOptionIsExecutionOnly pins the contract Options.Verify is built
// on: a verified build is byte-identical to an unverified one and the two
// share cache fingerprints.
func TestVerifyOptionIsExecutionOnly(t *testing.T) {
	p := device.MustByName("XCV50")
	insts := []designs.Instance{{Prefix: "u1/", Gen: designs.Counter{Bits: 6}}}

	plain, err := BuildFull(context.Background(), p, insts, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	verified, err := BuildFull(context.Background(), p, insts, Options{Seed: 3, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bitstream, verified.Bitstream) {
		t.Fatal("Verify changed the built bitstream")
	}
	if (Options{Seed: 3}).Fingerprint() != (Options{Seed: 3, Verify: true}).Fingerprint() {
		t.Fatal("Verify leaked into the options fingerprint")
	}
}

// TestVerifyCatchesCorruptedBitstream drives verifyBitstream directly with a
// stream whose payload was corrupted after CRC stamping — the scenario the
// flow-level check exists for (a writer or cache bug between bitgen and
// disk).
func TestVerifyCatchesCorruptedBitstream(t *testing.T) {
	p, prev, _ := implementSBox(t, 11)
	_ = p
	bs := append([]byte(nil), prev.Bitstream...)
	bs[len(bs)/2] ^= 0x08

	err := verifyBitstream(context.Background(), Options{Verify: true}, bs)
	if err == nil {
		t.Fatal("corrupted bitstream passed flow verification")
	}
	if !strings.Contains(err.Error(), "bitstream verification failed") {
		t.Fatalf("unexpected error: %v", err)
	}
	// And with Verify off the check must not run at all.
	if err := verifyBitstream(context.Background(), Options{}, bs); err != nil {
		t.Fatalf("verification ran with Verify off: %v", err)
	}
}

// TestIncrementalSpliceVerified runs an edit-session splice with Verify on:
// both the new full bitstream and the splice proof (previous full + delta ==
// new full) must pass, and the results must match an unverified session.
func TestIncrementalSpliceVerified(t *testing.T) {
	_, prev, opts := implementSBox(t, 7)
	vopts := opts
	vopts.Verify = true
	s, err := NewEditSession(prev, nil, vopts)
	if err != nil {
		t.Fatal(err)
	}

	edits := []map[string]uint16{
		{"u1/sbox0": 0xbeef, "u1/sq1": 1},
		{"u1/sbox2": 0x0f0f},
		{"u1/sbox0": 0x1111, "u1/sbox4": 0xfedc},
	}
	// Unverified twin session for byte-identity.
	s2, err := NewEditSession(prev, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	cur := prev.Netlist
	for i, e := range edits {
		next := editedClone(t, cur, e)
		res, err := s.Edit(context.Background(), next)
		if err != nil {
			t.Fatalf("verified edit %d: %v", i, err)
		}
		res2, err := s2.Edit(context.Background(), next.Clone())
		if err != nil {
			t.Fatalf("unverified edit %d: %v", i, err)
		}
		if !bytes.Equal(res.Artifacts.Bitstream, res2.Artifacts.Bitstream) {
			t.Fatalf("edit %d: verified splice differs from unverified", i)
		}
		cur = next
	}
}

// TestVerifySpliceRejectsForgedDelta feeds verifySplice a delta that does
// not reproduce the claimed full bitstream.
func TestVerifySpliceRejectsForgedDelta(t *testing.T) {
	_, prev, opts := implementSBox(t, 12)
	s, err := NewEditSession(prev, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	next := editedClone(t, prev.Netlist, map[string]uint16{"u1/sbox1": 0xaaaa})
	res, err := s.Edit(context.Background(), next)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta == nil {
		t.Fatal("edit produced no delta")
	}

	vopts := opts
	vopts.Verify = true
	// The true triple passes...
	if err := verifySplice(context.Background(), vopts,
		prev.Bitstream, res.Delta.Bitstream, res.Artifacts.Bitstream); err != nil {
		t.Fatal(err)
	}
	// ...a forged delta (one frame word flipped) must not.
	forged := append([]byte(nil), res.Delta.Bitstream...)
	pis, err := bitstream.Inspect(forged)
	if err != nil {
		t.Fatal(err)
	}
	for _, pi := range pis {
		if pi.Reg == bitstream.RegFDRI && pi.Count > 0 {
			forged[4*(pi.Offset+2)] ^= 0x20
			break
		}
	}
	err = verifySplice(context.Background(), vopts,
		prev.Bitstream, forged, res.Artifacts.Bitstream)
	if err == nil {
		t.Fatal("forged delta passed splice verification")
	}
	if !strings.Contains(err.Error(), "splice verification failed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestVerifySpliceSubsumesFullCheck pins why a spliced edit with a delta
// verifies its new full bitstream with bitlint.VerifySplice alone: every
// corruption of the full stream that bitlint.Verify rejects, VerifySplice
// rejects too.
func TestVerifySpliceSubsumesFullCheck(t *testing.T) {
	_, prev, opts := implementSBox(t, 13)
	s, err := NewEditSession(prev, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Edit(context.Background(), editedClone(t, prev.Netlist, map[string]uint16{"u1/sbox2": 0x5a5a}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta == nil {
		t.Fatal("edit produced no delta")
	}
	full := res.Artifacts.Bitstream
	splice := func(full []byte) error {
		rep, err := bitlint.VerifySplice(prev.Bitstream, res.Delta.Bitstream, full)
		if err == nil && rep != nil {
			err = rep.Err()
		}
		return err
	}
	if err := splice(full); err != nil {
		t.Fatalf("the true triple fails: %v", err)
	}

	flip := func(word int) []byte {
		b := append([]byte(nil), full...)
		b[4*word+3] ^= 0x01
		return b
	}
	corrupt := map[string][]byte{"truncated": full[:len(full)/2]}
	pis, err := bitstream.Inspect(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, pi := range pis {
		switch {
		case pi.Reg == bitstream.RegCRC && pi.Op == bitstream.OpWrite && corrupt["crc"] == nil:
			corrupt["crc"] = flip(pi.Offset + 1)
		case pi.Reg == bitstream.RegFDRI && pi.Count > 0 && corrupt["fdri"] == nil:
			corrupt["fdri"] = flip(pi.Offset + 2 + pi.Count/2)
		}
	}
	if len(corrupt) != 3 {
		t.Fatalf("found no CRC or FDRI packet to corrupt: %v", corrupt)
	}
	for name, bad := range corrupt {
		rep, err := bitlint.Verify(bad)
		if err == nil {
			err = rep.Err()
		}
		if err == nil {
			t.Fatalf("%s: bitlint.Verify accepts the corrupted full stream", name)
		}
		if splice(bad) == nil {
			t.Fatalf("%s: VerifySplice accepts a full stream bitlint.Verify rejects (%v)", name, err)
		}
	}
}
