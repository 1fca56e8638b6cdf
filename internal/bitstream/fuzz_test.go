package bitstream

import (
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/frames"
)

// seedMemory is randomMemory without the *testing.T, usable from fuzz seed
// setup.
func seedMemory(partName string, seed int64) *frames.Memory {
	p := device.MustByName(partName)
	m := frames.New(p)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2000; i++ {
		m.SetBit(p.CLBBit(rng.Intn(p.Rows), rng.Intn(p.Cols), rng.Intn(device.CLBLocalBits)), true)
	}
	return m
}

// fuzzSeeds adds one of every stream shape the writer can produce, plus a few
// deliberately broken ones.
func fuzzSeeds(f *testing.F) {
	m := seedMemory("XCV50", 99)
	p := m.Part
	full := WriteFull(m)
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:37]) // unaligned truncation
	runs := []FrameRun{{Start: device.MakeFAR(0, 2, 0), N: device.FramesCLBCol}}
	if bs, err := WritePartial(m, runs); err == nil {
		f.Add(bs)
	}
	if bs, err := WritePartialCompressed(frames.New(p), runs); err == nil {
		f.Add(bs)
	}
	if bs, err := WriteReadbackRequest(p, runs); err == nil {
		f.Add(bs)
	}
	f.Add([]byte{})
	f.Add(streamOf(DummyWord, SyncWord, 7<<hdrTypeShift))
	f.Add(streamOf(DummyWord, SyncWord, type2Header(OpWrite, 4), 1, 2, 3, 4))
}

// FuzzInspect requires Inspect to terminate without panicking on arbitrary
// bytes and, when it accepts a stream, to report packet offsets inside it.
func FuzzInspect(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		pis, err := Inspect(data)
		if err != nil {
			return
		}
		for _, pi := range pis {
			if pi.Offset < 0 || 4*pi.Offset >= len(data) {
				t.Fatalf("packet offset %d outside the %d-byte stream", pi.Offset, len(data))
			}
		}
	})
}

// FuzzApply requires the port VM to terminate without panicking and to keep
// its stats consistent with the device model on arbitrary bytes.
func FuzzApply(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		mem := frames.New(device.MustByName("XCV50"))
		stats, err := Apply(mem, data)
		if err != nil {
			return
		}
		if stats.FramesWritten < 0 {
			t.Fatalf("negative FramesWritten %d", stats.FramesWritten)
		}
	})
}

// FuzzExecuteReadback runs arbitrary bytes as a readback request against a
// seeded XCV50 memory. No input may panic or change the memory, accepted or
// refused, and an accepted request returns exactly the words its FDRO reads
// ask for, as Inspect lists them.
func FuzzExecuteReadback(f *testing.F) {
	mem := seedMemory("XCV50", 98)
	p := mem.Part
	for _, runs := range [][]FrameRun{
		{{Start: p.FirstFAR(), N: 1}},
		{{Start: device.MakeFAR(0, 2, 0), N: 2}, {Start: device.MakeFAR(1, 0, 0), N: 4}},
		{{Start: p.FirstFAR(), N: p.TotalFrames()}},
	} {
		req, err := WriteReadbackRequest(p, runs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(req)
		f.Add(req[:len(req)-12])                               // cut before DESYNCH
		f.Add(append(streamOf(0xDEADBEEF), req...))            // junk before sync
		f.Add(append(append([]byte(nil), req...), req[4:]...)) // re-synced second request
	}
	// Broken requests: a two-word FAR write, and frames written before
	// the read.
	far, fw := uint32(device.MakeFAR(0, 2, 0)), p.FrameWords()
	read := []uint32{type1Header(OpWrite, RegCMD, 1), CmdRCFG, type1Header(OpRead, RegFDRO, 2*fw),
		type1Header(OpWrite, RegCMD, 1), CmdDESYNCH}
	f.Add(streamOf(append([]uint32{DummyWord, SyncWord, type1Header(OpWrite, RegFAR, 2), far, far}, read...)...))
	frame := append([]uint32{DummyWord, SyncWord, type1Header(OpWrite, RegFAR, 1), far,
		type1Header(OpWrite, RegCMD, 1), CmdWCFG, type1Header(OpWrite, RegFDRI, 2*fw)}, make([]uint32, 2*fw)...)
	f.Add(streamOf(append(frame, read...)...))
	f.Add(WriteFull(mem))
	f.Add([]byte{})

	want := mem.Clone()
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := ExecuteReadback(mem, data)
		if !mem.Equal(want) {
			t.Fatalf("readback request (err %v) changed configuration memory", err)
		}
		if err != nil {
			return
		}
		pis, err := Inspect(data)
		if err != nil {
			t.Fatalf("accepted request does not inspect: %v", err)
		}
		asked := 0
		for _, pi := range pis {
			if pi.Op == OpRead && pi.Reg == RegFDRO {
				asked += pi.Count
			}
		}
		if len(out) != asked {
			t.Fatalf("request read %d words, its FDRO reads ask for %d", len(out), asked)
		}
	})
}
