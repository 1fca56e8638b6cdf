package bitstream

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/frames"
)

// TestReadersAgreeOnFraming holds Apply, ExecuteReadback and Inspect to one
// framing of a stream. Each fault is made in a partial bitstream and in a
// readback request that both execute cleanly: Apply and ExecuteReadback
// must refuse every faulted stream, Inspect exactly the framing faults, and
// a refused readback request must leave the memory as it was.
func TestReadersAgreeOnFraming(t *testing.T) {
	mem := randomMemory(t, "XCV50", 51)
	p := mem.Part
	fw := p.FrameWords()
	runs := []FrameRun{{Start: device.MakeFAR(0, 2, 0), N: 3}}
	download, err := WritePartial(mem, runs)
	if err != nil {
		t.Fatal(err)
	}
	request, err := WriteReadbackRequest(p, runs)
	if err != nil {
		t.Fatal(err)
	}

	// farAt returns the offset of the stream's first FAR write header.
	farAt := func(t *testing.T, w []uint32) int {
		for i, x := range w {
			if x == type1Header(OpWrite, RegFAR, 1) {
				return i
			}
		}
		t.Fatal("stream has no FAR write")
		return 0
	}
	// insert puts packets right after the first FAR write.
	insert := func(t *testing.T, w []uint32, packets ...uint32) []uint32 {
		k := farAt(t, w) + 2
		return append(append(append([]uint32(nil), w[:k]...), packets...), w[k:]...)
	}
	frameData := make([]uint32, 2*fw)
	cases := []struct {
		name    string
		mutate  func(t *testing.T, w []uint32) []uint32
		framing bool   // Inspect refuses it too
		want    string // in ExecuteReadback's error
	}{
		{"junk-before-sync", func(t *testing.T, w []uint32) []uint32 {
			return append([]uint32{0xDEADBEEF}, w...)
		}, true, "before sync"},
		{"truncated-payload", func(t *testing.T, w []uint32) []uint32 {
			return w[:farAt(t, w)+1]
		}, true, "truncated packet"},
		{"type2-first-after-resync", func(t *testing.T, w []uint32) []uint32 {
			return append(append([]uint32(nil), w...), SyncWord, type2Header(OpWrite, 1), 0)
		}, true, "register select"},
		{"far-write-of-two-words", func(t *testing.T, w []uint32) []uint32 {
			k := farAt(t, w)
			w = insert(t, w, w[k+1])
			w[k] = type1Header(OpWrite, RegFAR, 2)
			return w
		}, false, "FAR write of 2 words"},
		{"unknown-register", func(t *testing.T, w []uint32) []uint32 {
			return insert(t, w, type1Header(OpWrite, 12, 1), 0)
		}, false, "unknown register"},
		{"reserved-opcode", func(t *testing.T, w []uint32) []uint32 {
			return insert(t, w, type1Header(3, RegCMD, 0))
		}, false, "reserved opcode"},
		{"request-carrying-frames", func(t *testing.T, w []uint32) []uint32 {
			w = insert(t, w, append([]uint32{type1Header(OpWrite, RegCMD, 1), CmdWCFG,
				type1Header(OpWrite, RegFDRI, len(frameData))}, frameData...)...)
			return insert(t, w, type1Header(OpWrite, RegCMD, 1), CmdRCFG,
				type1Header(OpRead, RegFDRO, 2*fw))
		}, false, "FDRI write in a readback request"},
	}

	// The unfaulted streams pass every reader.
	if _, err := Apply(frames.New(p), download); err != nil {
		t.Fatalf("clean partial refused: %v", err)
	}
	if _, err := ExecuteReadback(mem, request); err != nil {
		t.Fatalf("clean readback request refused: %v", err)
	}
	for _, bs := range [][]byte{download, request} {
		if _, err := Inspect(bs); err != nil {
			t.Fatalf("clean stream does not inspect: %v", err)
		}
	}

	words := func(bs []byte) []uint32 {
		w := make([]uint32, len(bs)/4)
		for i := range w {
			w[i] = binary.BigEndian.Uint32(bs[4*i:])
		}
		return w
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dl := streamOf(tc.mutate(t, words(download))...)
			rq := streamOf(tc.mutate(t, words(request))...)
			if _, err := Apply(frames.New(p), dl); err == nil {
				t.Error("Apply accepted the faulted partial")
			}
			before := mem.Clone()
			if _, err := ExecuteReadback(mem, rq); err == nil {
				t.Error("ExecuteReadback accepted the faulted request")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ExecuteReadback error %q does not mention %q", err, tc.want)
			}
			if !mem.Equal(before) {
				t.Fatal("a refused readback request wrote configuration memory")
			}
			for _, bs := range [][]byte{dl, rq} {
				if _, err := Inspect(bs); (err != nil) != tc.framing {
					t.Errorf("Inspect error %v; framing fault %v", err, tc.framing)
				}
			}
		})
	}
}
