package bitlint

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/device"
	"repro/internal/frames"
)

func randomMemory(t *testing.T, partName string, seed int64) *frames.Memory {
	t.Helper()
	p := device.MustByName(partName)
	m := frames.New(p)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2000; i++ {
		bc := p.CLBBit(rng.Intn(p.Rows), rng.Intn(p.Cols), rng.Intn(device.CLBLocalBits))
		m.SetBit(bc, true)
	}
	return m
}

// hdr1 assembles a type-1 packet header the way the writer does, without
// depending on the writer.
func hdr1(op, reg, count int) uint32 {
	return 1<<29 | uint32(op)<<27 | uint32(reg)<<13 | uint32(count)
}

func streamOf(words ...uint32) []byte {
	bs := make([]byte, 4*len(words))
	for i, w := range words {
		binary.BigEndian.PutUint32(bs[4*i:], w)
	}
	return bs
}

func hasFinding(rep *Report, code string) bool {
	for _, f := range rep.Findings {
		if f.Code == code {
			return true
		}
	}
	return false
}

func TestDecodeReconstructsFullBitstream(t *testing.T) {
	src := randomMemory(t, "XCV50", 1)
	rep, err := Decode(bitstream.WriteFull(src))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Part.Name != "XCV50" {
		t.Fatalf("inferred part %s", rep.Part.Name)
	}
	if !rep.Frames.Equal(src) {
		t.Fatal("reconstruction differs from the serialised memory")
	}
	if !rep.Started {
		t.Fatal("full bitstream did not register as starting the device")
	}
	if rep.CRCChecks == 0 {
		t.Fatal("no CRC check recorded")
	}
	if rep.FramesWritten != src.Part.TotalFrames() {
		t.Fatalf("FramesWritten = %d, want %d", rep.FramesWritten, src.Part.TotalFrames())
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("clean stream produced findings:\n%s", rep)
	}
}

func TestVerifyCleanStreams(t *testing.T) {
	p := device.MustByName("XCV50")
	src := randomMemory(t, "XCV50", 2)

	t.Run("full", func(t *testing.T) {
		rep, err := Verify(bitstream.WriteFull(src))
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("partial", func(t *testing.T) {
		runs := []bitstream.FrameRun{{Start: device.MakeFAR(0, 2, 0), N: device.FramesCLBCol}}
		partial, err := bitstream.WritePartial(src, runs)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := VerifyPartial(frames.New(p), partial)
		if err != nil {
			t.Fatalf("%v\n%s", err, rep)
		}
		if rep.FramesWritten != device.FramesCLBCol {
			t.Fatalf("FramesWritten = %d, want %d", rep.FramesWritten, device.FramesCLBCol)
		}
		if rep.Started {
			t.Fatal("partial registered as starting the device")
		}
	})
	t.Run("compressed-partial", func(t *testing.T) {
		// All-zero column: the writer collapses it into FDRI + MFWR chain.
		runs := []bitstream.FrameRun{{Start: device.MakeFAR(0, 5, 0), N: device.FramesCLBCol}}
		partial, err := bitstream.WritePartialCompressed(frames.New(p), runs)
		if err != nil {
			t.Fatal(err)
		}
		base := randomMemory(t, "XCV50", 3)
		if _, err := VerifyPartial(base, partial); err != nil {
			t.Fatal(err)
		}
	})
}

func TestVerifyDetectsCorruptedPayload(t *testing.T) {
	src := randomMemory(t, "XCV50", 4)
	golden := bitstream.WriteFull(src)
	pis, err := bitstream.Inspect(golden)
	if err != nil {
		t.Fatal(err)
	}
	fdriOff := -1
	for _, pi := range pis {
		if pi.Reg == bitstream.RegFDRI && pi.Type == bitstream.PacketType2 {
			fdriOff = pi.Offset
		}
	}
	if fdriOff < 0 {
		t.Fatal("no type-2 FDRI packet in the golden stream")
	}
	bs := append([]byte(nil), golden...)
	bs[4*(fdriOff+5)] ^= 0x40 // flip one payload bit

	rep, err := Verify(bs)
	if err != nil {
		t.Fatal(err)
	}
	verr := rep.Err()
	if verr == nil {
		t.Fatal("corrupted payload verified clean")
	}
	if !hasFinding(rep, "crc-mismatch") {
		t.Fatalf("corruption not caught by the CRC chain: %v", verr)
	}
}

func TestVerifyPartialRejectsFullStream(t *testing.T) {
	src := randomMemory(t, "XCV50", 5)
	_, err := VerifyPartial(frames.New(src.Part), bitstream.WriteFull(src))
	if err == nil || !strings.Contains(err.Error(), "partial-starts") {
		t.Fatalf("full stream accepted as a partial: %v", err)
	}
}

func TestVerifySplice(t *testing.T) {
	baseMem := randomMemory(t, "XCV50", 6)
	baseFull := bitstream.WriteFull(baseMem)

	// A variant differing in a handful of frames across two columns.
	variant := baseMem.Clone()
	var changed []device.FAR
	for _, far := range []device.FAR{
		device.MakeFAR(0, 3, 0), device.MakeFAR(0, 3, 1),
		device.MakeFAR(0, 7, 10), device.MakeFAR(1, 0, 4),
	} {
		fr := append([]uint32(nil), variant.Frame(far)...)
		fr[2] ^= 0x00F0F000
		if err := variant.SetFrame(far, fr); err != nil {
			t.Fatal(err)
		}
		changed = append(changed, far)
	}
	partial, err := bitstream.WritePartialForFARs(variant, changed)
	if err != nil {
		t.Fatal(err)
	}
	full := bitstream.WriteFull(variant)

	t.Run("splice-equals-rebuild", func(t *testing.T) {
		rep, err := VerifySplice(baseFull, partial, full)
		if err != nil {
			t.Fatalf("%v\n%s", err, rep)
		}
	})
	t.Run("wrong-full", func(t *testing.T) {
		other := bitstream.WriteFull(randomMemory(t, "XCV50", 7))
		rep, err := VerifySplice(baseFull, partial, other)
		if err == nil {
			t.Fatal("splice against an unrelated full stream verified clean")
		}
		if !hasFinding(rep, "differential-mismatch") {
			t.Fatalf("mismatch not reported differentially: %v", err)
		}
	})
}

func TestLintFindings(t *testing.T) {
	p := device.MustByName("XCV50")
	src := randomMemory(t, "XCV50", 8)
	golden := bitstream.WriteFull(src)
	flr := uint32(p.FrameWords() - 1)

	prefix := []uint32{bitstream.DummyWord, bitstream.SyncWord,
		hdr1(bitstream.OpWrite, bitstream.RegFLR, 1), flr}

	cases := []struct {
		name string
		bs   []byte
		code string
		sev  Severity
	}{
		{"junk-before-sync", append(streamOf(0xDEADBEEF), golden...), "junk-before-sync", SevError},
		{"trailer-junk", append(append([]byte(nil), golden...), streamOf(0xDEADBEEF)...), "trailer-junk", SevWarning},
		{"no-sync", streamOf(bitstream.DummyWord, bitstream.DummyWord), "no-sync", SevError},
		{"read-in-download", streamOf(append(prefix,
			hdr1(bitstream.OpRead, bitstream.RegSTAT, 1))...), "read-in-download", SevError},
		{"invalid-far", streamOf(append(prefix,
			hdr1(bitstream.OpWrite, bitstream.RegFAR, 1), 0x0FFFFFFF)...), "invalid-far", SevError},
		{"fdri-without-wcfg", streamOf(append(prefix,
			hdr1(bitstream.OpWrite, bitstream.RegFAR, 1), uint32(device.MakeFAR(0, 1, 0)),
			hdr1(bitstream.OpWrite, bitstream.RegFDRI, 24),
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)...), "fdri-without-wcfg", SevError},
		{"write-to-read-only", streamOf(append(prefix,
			hdr1(bitstream.OpWrite, bitstream.RegSTAT, 1), 0)...), "write-to-read-only", SevError},
		{"unknown-cmd", streamOf(append(prefix,
			hdr1(bitstream.OpWrite, bitstream.RegCMD, 1), 99)...), "unknown-cmd", SevWarning},
		{"flr-mismatch", streamOf(bitstream.DummyWord, bitstream.SyncWord,
			hdr1(bitstream.OpWrite, bitstream.RegFLR, 1), flr+7), "flr-mismatch", SevError},
		{"truncated-packet", streamOf(append(prefix,
			hdr1(bitstream.OpWrite, bitstream.RegFDRI, 24), 0, 0, 0)...), "truncated-packet", SevError},
		{"bad-reg-count", streamOf(append(prefix,
			hdr1(bitstream.OpWrite, bitstream.RegFAR, 2), 0, 0)...), "bad-reg-count", SevError},
		{"mfwr-without-wcfg", streamOf(append(prefix,
			hdr1(bitstream.OpWrite, bitstream.RegMFWR, 1), uint32(device.MakeFAR(0, 1, 0)))...),
			"mfwr-without-wcfg", SevError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := DecodeFor(p, tc.bs)
			found := false
			for _, f := range rep.Findings {
				if f.Code == tc.code {
					found = true
					if f.Severity != tc.sev {
						t.Fatalf("finding %s has severity %v, want %v", f.Code, f.Severity, tc.sev)
					}
				}
			}
			if !found {
				t.Fatalf("no %s finding; report:\n%s", tc.code, rep)
			}
		})
	}
}

func TestReportErrAndString(t *testing.T) {
	rep := &Report{Part: device.MustByName("XCV50")}
	if rep.Err() != nil {
		t.Fatal("empty report reports an error")
	}
	if !strings.Contains(rep.String(), "clean") {
		t.Fatalf("clean report renders as %q", rep.String())
	}
	rep.add(SevWarning, "no-desynch", -1, "w")
	if rep.Err() != nil {
		t.Fatal("warning-only report reports an error")
	}
	for i := 0; i < 5; i++ {
		rep.add(SevError, "crc-mismatch", i, "e%d", i)
	}
	err := rep.Err()
	if err == nil || !strings.Contains(err.Error(), "5 error finding(s)") {
		t.Fatalf("Err() = %v", err)
	}
	if !strings.Contains(err.Error(), "and 2 more") {
		t.Fatalf("Err() does not elide: %v", err)
	}
}
