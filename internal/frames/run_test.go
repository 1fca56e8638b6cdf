package frames

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/device"
)

// walkFrames is the reference for Frames: Frame concatenated over a NextFAR
// walk of n frames from start, the walk the configuration port's FAR
// auto-increment makes. ok is false where the walk fails: an invalid start,
// a negative n, or a step past the last frame.
func walkFrames(m *Memory, start device.FAR, n int) (words []uint32, ok bool) {
	p := m.Part
	if !p.ValidFAR(start) || n < 0 {
		return nil, false
	}
	words = []uint32{}
	f := start
	for k := 0; k < n; k++ {
		words = append(words, m.Frame(f)...)
		if k < n-1 {
			if f, ok = p.NextFAR(f); !ok {
				return nil, false
			}
		}
	}
	return words, true
}

type runCase struct {
	start device.FAR
	n     int
}

func (c runCase) String() string { return fmt.Sprintf("%v+%d", c.start, c.n) }

// runCases returns the runs the run primitive is checked on for one part:
// random starts and lengths, runs ending on the last frame and one frame
// past it, empty and negative runs, and starts that address no frame.
func runCases(p *Part, rng *rand.Rand) []runCase {
	total := p.TotalFrames()
	at := p.MustFARAt
	var cs []runCase
	for k := 0; k < 40; k++ {
		i := rng.Intn(total)
		cs = append(cs, runCase{at(i), 1 + rng.Intn(total-i)})
	}
	for _, n := range []int{1, 2, 48, 65, total} {
		cs = append(cs,
			runCase{at(total - n), n},       // ends on the last frame
			runCase{at(total - n), n + 1},   // one frame past it
			runCase{at(rng.Intn(total)), 0}, // empty
		)
	}
	// The last frame of block type 0, alone and crossing into block type 1.
	maj := p.NumMajors(device.BlockCLB) - 1
	lastCLB := device.MakeFAR(device.BlockCLB, maj, p.FramesInMajor(device.BlockCLB, maj)-1)
	cs = append(cs, runCase{lastCLB, 1}, runCase{lastCLB, 2})
	cs = append(cs,
		runCase{p.FirstFAR(), -1},
		runCase{at(total / 2), -5},
		runCase{device.MakeFAR(7, 0, 0), 1},                                   // no such block type
		runCase{device.MakeFAR(device.BlockCLB, p.NumMajors(0), 0), 1},        // no such major
		runCase{device.MakeFAR(device.BlockCLB, 0, device.FramesClockCol), 0}, // no such minor
	)
	return cs
}

// randomMemory fills a memory with random words, so every frame differs and
// an off-by-one run cannot alias.
func randomMemory(p *Part, rng *rand.Rand) *Memory {
	m := New(p)
	for i := range m.data {
		m.data[i] = rng.Uint32()
	}
	return m
}

func TestFramesMatchesFrameWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range device.All() {
		m := randomMemory(p, rng)
		for _, c := range runCases(p, rng) {
			want, ok := walkFrames(m, c.start, c.n)
			got, err := m.Frames(c.start, c.n)
			if (err == nil) != ok {
				t.Fatalf("%s %v: Frames error %v, walk ok %v", p.Name, c, err, ok)
			}
			if !ok {
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s %v: Frames differs from the frame walk", p.Name, c)
			}
			if cap(got) != len(got) {
				t.Fatalf("%s %v: an append to the run would overwrite the next frame", p.Name, c)
			}
			if c.n > 0 {
				got[0] ^= 1 // the run aliases the memory
				if m.Frame(c.start)[0] != got[0] {
					t.Fatalf("%s %v: run does not alias the memory", p.Name, c)
				}
				got[0] ^= 1
			}
		}
	}
}

// TestSetFramesMatchesSetFrame pins SetFrames to one SetFrame per frame of
// the walk: the same memory and the same dirty set, and on a run the walk
// rejects, nothing written at all.
func TestSetFramesMatchesSetFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range device.All() {
		fw := p.FrameWords()
		base := randomMemory(p, rng)
		for _, c := range runCases(p, rng) {
			if c.n < 0 {
				continue // a payload has no negative length
			}
			n := c.n
			old, ok := walkFrames(base, c.start, n)
			payload := make([]uint32, n*fw)
			for k := 0; k < n; k++ {
				// Every third frame rewrites what the memory holds, which
				// must not mark it dirty.
				if ok && k%3 == 0 {
					copy(payload[k*fw:], old[k*fw:(k+1)*fw])
					continue
				}
				for w := 0; w < fw; w++ {
					payload[k*fw+w] = rng.Uint32()
				}
			}
			got, want := base.Clone(), base.Clone()
			got.StartTracking()
			want.StartTracking()
			err := got.SetFrames(c.start, payload)
			if ok {
				f := c.start
				for k := 0; k < n; k++ {
					if err := want.SetFrame(f, payload[k*fw:(k+1)*fw]); err != nil {
						t.Fatal(err)
					}
					f, _ = p.NextFAR(f)
				}
			}
			if (err == nil) != ok {
				t.Fatalf("%s %v: SetFrames error %v, walk ok %v", p.Name, c, err, ok)
			}
			if !got.Equal(want) {
				t.Fatalf("%s %v: SetFrames left different memory from per-frame SetFrame", p.Name, c)
			}
			if !slices.Equal(got.DirtyFARs(), want.DirtyFARs()) {
				t.Fatalf("%s %v: dirty sets differ: %d vs %d frames", p.Name, c, got.DirtyCount(), want.DirtyCount())
			}
		}
		if err := base.Clone().SetFrames(p.FirstFAR(), make([]uint32, fw+1)); err == nil {
			t.Fatalf("%s: SetFrames accepted a partial frame", p.Name)
		}
	}

	// A frame whose content changes is dirty; one rewritten with what it
	// held is not.
	p := xcv50()
	far := device.MakeFAR(device.BlockCLB, p.CLBMajor(7), 2)
	src := New(p)
	src.SetBit(device.BitCoord{FAR: far, Bit: 3}, true)
	run, err := src.Frames(far, 2)
	if err != nil {
		t.Fatal(err)
	}
	dst := New(p)
	dst.StartTracking()
	if err := dst.SetFrames(far, run); err != nil {
		t.Fatal(err)
	}
	next := device.MakeFAR(device.BlockCLB, p.CLBMajor(7), 3)
	if dst.DirtyCount() != 1 || !dst.FrameDirty(far) || dst.FrameDirty(next) {
		t.Fatalf("SetFrames tracked %d dirty frames", dst.DirtyCount())
	}
}
