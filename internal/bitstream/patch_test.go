package bitstream

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/frames"
)

// TestCRCCarryMatchesZeroFold pins crcCarry to folding n zero words to
// address 0, the carry's definition, across the table powers.
func TestCRCCarryMatchesZeroFold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	zeros := make([]uint32, 70000)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 255, 256, 1023, 4097, 65535, 65536, 69999} {
		for k := 0; k < 8; k++ {
			d := uint16(rng.Intn(1 << 16))
			if got, want := crcCarry(d, n), crcFold(d, 0, zeros[:n]); got != want {
				t.Fatalf("carry %#04x over %d zero writes: %#04x, fold %#04x", d, n, got, want)
			}
		}
	}
}

// scatterMemory fills a random share of p's frames, block types 0 and 1
// alike, with random words.
func scatterMemory(p *device.Part, rng *rand.Rand) *frames.Memory {
	m := frames.New(p)
	for i := 0; i < p.TotalFrames(); i++ {
		if rng.Intn(4) == 0 {
			setRandomFrame(m, i, rng)
		}
	}
	return m
}

// setRandomFrame overwrites frame i (device order) with random words.
func setRandomFrame(m *frames.Memory, i int, rng *rand.Rand) {
	words := make([]uint32, m.Part.FrameWords())
	for k := range words {
		words[k] = rng.Uint32()
	}
	if err := m.SetFrame(m.Part.MustFARAt(i), words); err != nil {
		panic(err)
	}
}

// checkPatch rewrites the frames at idx in a copy of old (every other one
// left as it was, so the dirty set names unchanged frames too) and requires
// PatchFull of old's stream to equal WriteFull of the copy.
func checkPatch(t *testing.T, old *frames.Memory, full []byte, idx []int, rng *rand.Rand) {
	t.Helper()
	p := old.Part
	mem := old.Clone()
	dirty := make([]device.FAR, len(idx))
	for k, i := range idx {
		if k%2 == 0 {
			setRandomFrame(mem, i, rng)
		}
		dirty[k] = p.MustFARAt(i)
	}
	got, err := PatchFull(full, mem, dirty)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	if want := WriteFull(mem); !bytes.Equal(got, want) {
		t.Fatalf("%s: patch of frames %v differs from WriteFull", p.Name, idx)
	}
}

// TestPatchFullAllParts holds PatchFull to WriteFull on every part: the
// first and last frames, a BRAM content frame (block type 1) and the last
// frame of block type 0 beside it, random sets in any order with repeats,
// and no frames at all.
func TestPatchFullAllParts(t *testing.T) {
	for _, p := range device.All() {
		rng := rand.New(rand.NewSource(int64(p.TotalFrames())))
		old := scatterMemory(p, rng)
		full := WriteFull(old)
		last := p.TotalFrames() - 1
		bram := p.FrameIndex(device.MakeFAR(device.BlockBRAM, 0, 0))
		random := make([]int, 12)
		for k := range random {
			random[k] = rng.Intn(p.TotalFrames())
		}
		random = append(random, random[3], random[0])
		for _, idx := range [][]int{
			{0}, {last}, {0, last}, {bram - 1, bram}, {last, bram, 5, bram, 0},
			random, nil,
		} {
			checkPatch(t, old, full, idx, rng)
		}
	}
}

// TestPatchFullRejects: a stream not in WriteFull's layout for the
// memory's part, or a frame address off the part, is an error.
func TestPatchFullRejects(t *testing.T) {
	m := seedMemory("XCV50", 3)
	full := WriteFull(m)
	other := WriteFull(frames.New(device.MustByName("XCV100")))
	partial, err := WritePartial(m, []FrameRun{{Start: m.Part.FirstFAR(), N: 4}})
	if err != nil {
		t.Fatal(err)
	}
	cor := bytes.Clone(full)
	binary.BigEndian.PutUint32(cor[4*8:], 1) // the COR write's data word
	desynch := bytes.Clone(full)
	binary.BigEndian.PutUint32(desynch[len(full)-4*5:], CmdSTART)
	for name, bs := range map[string][]byte{
		"other part": other, "partial": partial, "truncated": full[:len(full)-4],
		"COR": cor, "DESYNCH": desynch, "empty": nil,
	} {
		if _, err := PatchFull(bs, m, nil); err == nil {
			t.Errorf("%s stream patched", name)
		}
	}
	bad := device.MakeFAR(device.BlockBRAM, 7, 0)
	if _, err := PatchFull(full, m, []device.FAR{bad}); err == nil {
		t.Errorf("patch of %v accepted", bad)
	}
}

// FuzzPatchFull holds PatchFull to WriteFull on random XCV50 memories and
// dirty sets. The seed draws the memory and the new frames' words; each two
// bytes of sel name a frame (device order, modulo the frame count), so sets
// may repeat frames and reach the first and last frame and both block
// types. Every other named frame is rewritten, the rest only listed.
func FuzzPatchFull(f *testing.F) {
	p := device.MustByName("XCV50")
	last := uint16(p.TotalFrames() - 1)
	bram := uint16(p.FrameIndex(device.MakeFAR(device.BlockBRAM, 1, 63)))
	pair := func(idx ...uint16) []byte {
		var b []byte
		for _, i := range idx {
			b = binary.BigEndian.AppendUint16(b, i)
		}
		return b
	}
	f.Add(int64(1), pair(0))
	f.Add(int64(2), pair(last))
	f.Add(int64(3), pair(0, last, bram, bram-300))
	f.Add(int64(4), pair(9, 9, 500, 9, 1200))
	f.Add(int64(5), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, sel []byte) {
		rng := rand.New(rand.NewSource(seed))
		old := scatterMemory(p, rng)
		var idx []int
		for ; len(sel) >= 2 && len(idx) < 64; sel = sel[2:] {
			idx = append(idx, int(binary.BigEndian.Uint16(sel))%p.TotalFrames())
		}
		checkPatch(t, old, WriteFull(old), idx, rng)
	})
}

var patchSink []byte

// BenchmarkPatchFull patches two frames of a full stream per part, the
// splice's share of an INIT edit; WriteFull is what it replaces.
func BenchmarkPatchFull(b *testing.B) {
	for _, name := range []string{"XCV50", "XCV300", "XCV1000"} {
		b.Run(name, func(b *testing.B) {
			p := device.MustByName(name)
			rng := rand.New(rand.NewSource(1))
			mem := scatterMemory(p, rng)
			full := WriteFull(mem)
			dirty := []device.FAR{p.MustFARAt(p.TotalFrames() / 3), p.MustFARAt(p.TotalFrames()/3 + 48)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bs, err := PatchFull(full, mem, dirty)
				if err != nil {
					b.Fatal(err)
				}
				patchSink = bs
			}
		})
	}
}
