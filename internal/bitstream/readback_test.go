package bitstream

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/frames"
)

// readbackFrames requests, executes and parses a readback in one call,
// returning the frames of each requested run as one slice.
func readbackFrames(mem *frames.Memory, runs []FrameRun) ([][]uint32, error) {
	req, err := WriteReadbackRequest(mem.Part, runs)
	if err != nil {
		return nil, err
	}
	raw, err := ExecuteReadback(mem, req)
	if err != nil {
		return nil, err
	}
	return ParseReadback(mem.Part, runs, raw)
}

func TestReadbackRoundTrip(t *testing.T) {
	mem := randomMemory(t, "XCV50", 11)
	p := mem.Part
	rg := frames.Region{R1: 0, C1: 3, R2: p.Rows - 1, C2: 7}
	runs := RunsForFARs(p, rg.FARs(p))
	got, err := readbackFrames(mem, runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(runs) {
		t.Fatalf("readback returned %d runs, want %d", len(got), len(runs))
	}
	fw := p.FrameWords()
	for ri, run := range runs {
		if len(got[ri]) != run.N*fw {
			t.Fatalf("run %d read back %d words, want %d", ri, len(got[ri]), run.N*fw)
		}
		far := run.Start
		for k := 0; k < run.N; k++ {
			want := mem.Frame(far)
			for w := range want {
				if got[ri][k*fw+w] != want[w] {
					t.Fatalf("run %d frame %d word %d: %#x != %#x", ri, k, w, got[ri][k*fw+w], want[w])
				}
			}
			if k < run.N-1 {
				far, _ = p.NextFAR(far)
			}
		}
	}
}

func TestReadbackMultipleRuns(t *testing.T) {
	mem := randomMemory(t, "XCV50", 12)
	// Two disjoint single-frame runs.
	f1 := device.MakeFAR(device.BlockCLB, 2, 5)
	f2 := device.MakeFAR(device.BlockCLB, 9, 40)
	runs := []FrameRun{{Start: f1, N: 1}, {Start: f2, N: 1}}
	got, err := readbackFrames(mem, runs)
	if err != nil {
		t.Fatal(err)
	}
	for i, far := range []device.FAR{f1, f2} {
		want := mem.Frame(far)
		for w := range want {
			if got[i][w] != want[w] {
				t.Fatalf("run %d word %d mismatch", i, w)
			}
		}
	}
}

func TestReadbackRequestValidation(t *testing.T) {
	p := device.MustByName("XCV50")
	if _, err := WriteReadbackRequest(p, nil); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, err := WriteReadbackRequest(p, []FrameRun{{Start: p.FirstFAR(), N: 0}}); err == nil {
		t.Fatal("zero-length run accepted")
	}
	if _, err := WriteReadbackRequest(p, []FrameRun{{Start: device.MakeFAR(7, 0, 0), N: 1}}); err == nil {
		t.Fatal("invalid FAR accepted")
	}
}

func TestExecuteReadbackRejectsOverrun(t *testing.T) {
	mem := frames.New(device.MustByName("XCV50"))
	p := mem.Part
	last, err := p.FARAt(p.TotalFrames() - 1)
	if err != nil {
		t.Fatal(err)
	}
	req, err := WriteReadbackRequest(p, []FrameRun{{Start: last, N: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteReadback(mem, req); err == nil {
		t.Fatal("overrunning readback accepted")
	}
}

func TestExecuteReadbackRejectsGarbage(t *testing.T) {
	mem := frames.New(device.MustByName("XCV50"))
	if _, err := ExecuteReadback(mem, []byte{1, 2, 3}); err == nil {
		t.Fatal("misaligned request accepted")
	}
	// A full bitstream writes frames, which a readback request may not:
	// it is refused, and the memory it would have written stays as it was.
	src := randomMemory(t, "XCV50", 14)
	if _, err := ExecuteReadback(mem, WriteFull(src)); err == nil {
		t.Fatal("a frame-writing stream executed as a readback request")
	}
	if !mem.Equal(frames.New(mem.Part)) {
		t.Fatal("a refused readback request wrote configuration memory")
	}
}

func TestParseReadbackLengthChecks(t *testing.T) {
	p := device.MustByName("XCV50")
	runs := []FrameRun{{Start: p.FirstFAR(), N: 2}}
	if _, err := ParseReadback(p, runs, make([]uint32, p.FrameWords())); err == nil {
		t.Fatal("short data accepted")
	}
	if _, err := ParseReadback(p, runs, make([]uint32, 5*p.FrameWords())); err == nil {
		t.Fatal("long data accepted")
	}
	// A run of no frames, or fewer, is refused as WriteReadbackRequest
	// refuses it, not split.
	for _, n := range []int{0, -1} {
		empty := []FrameRun{{Start: p.FirstFAR(), N: n}}
		if _, err := ParseReadback(p, empty, make([]uint32, p.FrameWords())); err == nil {
			t.Fatalf("run of %d frames accepted", n)
		}
	}
	if _, err := ParseReadback(p, runs, make([]uint32, 3*p.FrameWords())); err != nil {
		t.Fatal(err)
	}
}

// TestReadbackEveryColumn reads back every column of the smallest device,
// pinning FAR handling at all the column boundaries: the clock column, the
// first and last CLB columns, both IOB columns, the BRAM interconnect
// columns and the BRAM content columns — plus every adjacent-column
// crossing, including the block-type 0 -> 1 gap.
func TestReadbackEveryColumn(t *testing.T) {
	mem := randomMemory(t, "XCV50", 13)
	p := mem.Part
	// Make every frame distinct so an off-by-one cannot alias: stamp each
	// frame's first word with its device-order index.
	for i := 0; i < p.TotalFrames(); i++ {
		far, err := p.FARAt(i)
		if err != nil {
			t.Fatal(err)
		}
		fr := append([]uint32(nil), mem.Frame(far)...)
		fr[0] = uint32(0xC0DE0000 | i)
		if err := mem.SetFrame(far, fr); err != nil {
			t.Fatal(err)
		}
	}

	checkRun := func(t *testing.T, run FrameRun) {
		t.Helper()
		got, err := readbackFrames(mem, []FrameRun{run})
		if err != nil {
			t.Fatalf("run %v N=%d: %v", run.Start, run.N, err)
		}
		fw := p.FrameWords()
		far := run.Start
		for k := 0; k < run.N; k++ {
			want := mem.Frame(far)
			for w := range want {
				if got[0][k*fw+w] != want[w] {
					t.Fatalf("run %v N=%d frame %d word %d: %#08x != %#08x",
						run.Start, run.N, k, w, got[0][k*fw+w], want[w])
				}
			}
			if k < run.N-1 {
				far, _ = p.NextFAR(far)
			}
		}
	}

	for bt := 0; bt < device.NumBlockTypes; bt++ {
		for maj := 0; maj < p.NumMajors(bt); maj++ {
			n := p.FramesInMajor(bt, maj)
			start := device.MakeFAR(bt, maj, 0)
			t.Run(fmt.Sprintf("bt%d-major%d", bt, maj), func(t *testing.T) {
				// The whole column, its first frame, its last frame, and —
				// when a next column exists — the crossing into it.
				checkRun(t, FrameRun{Start: start, N: n})
				checkRun(t, FrameRun{Start: start, N: 1})
				last := device.MakeFAR(bt, maj, n-1)
				checkRun(t, FrameRun{Start: last, N: 1})
				if _, ok := p.NextFAR(last); ok {
					checkRun(t, FrameRun{Start: last, N: 2})
				}
			})
		}
	}
	t.Run("full-device", func(t *testing.T) {
		checkRun(t, FrameRun{Start: p.FirstFAR(), N: p.TotalFrames()})
	})
}
