package bitstream

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

// crcSerial is the reference CRC: the device's bit-serial register, clocked
// once per input bit, fed the 4 low address bits and then the 32 data bits,
// LSB first.
func crcSerial(crc uint16, reg int, word uint32) uint16 {
	feed := func(v uint32, nbits int) {
		for i := 0; i < nbits; i++ {
			bit := uint16(v>>uint(i)) & 1
			top := (crc >> 15) & 1
			crc <<= 1
			if top^bit == 1 {
				crc ^= crcPoly
			}
		}
	}
	feed(uint32(reg), 4)
	feed(word, 32)
	return crc
}

// crcUpdate folds one register write into the running CRC.
func crcUpdate(crc uint16, reg int, word uint32) uint16 {
	return crcFold(crc, reg, []uint32{word})
}

// TestCRCFoldMatchesSerial pins the table CRC to the bit-serial reference,
// one write at a time from random states and over multi-word runs.
func TestCRCFoldMatchesSerial(t *testing.T) {
	one := func(crc uint16, reg uint8, word uint32) bool {
		return crcUpdate(crc, int(reg%16), word) == crcSerial(crc, int(reg%16), word)
	}
	if err := quick.Check(one, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	run := func(crc uint16, reg uint8, words []uint32) bool {
		want := crc
		for _, w := range words {
			want = crcSerial(want, int(reg%16), w)
		}
		return crcFold(crc, int(reg%16), words) == want
	}
	if err := quick.Check(run, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCRCUpdateDiffusion(t *testing.T) {
	// Distinct single-word writes should (near-)always produce distinct CRCs.
	f := func(a, b uint32) bool {
		if a == b {
			return true
		}
		return crcUpdate(0, RegFDRI, a) != crcUpdate(0, RegFDRI, b) ||
			crcUpdate(crcUpdate(0, RegFDRI, a), RegFDRI, b) !=
				crcUpdate(crcUpdate(0, RegFDRI, b), RegFDRI, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fdriRun is the word count of the FDRI packet of an XCV50 full bitstream:
// every frame, then the pad frame.
func fdriRun() int {
	p := device.MustByName("XCV50")
	return (p.TotalFrames() + 1) * p.FrameWords()
}

// crcRunLengths lists the run lengths the fold is pinned at: every length to
// 19, then 4k-1, 4k and 4k+1 for k doubling from 5, and n-1, n and n+1.
func crcRunLengths(n int) []int {
	var ls []int
	for l := 0; l < 20; l++ {
		ls = append(ls, l)
	}
	for k := 5; 4*k < n; k *= 2 {
		ls = append(ls, 4*k-1, 4*k, 4*k+1)
	}
	return append(ls, n-1, n, n+1)
}

// TestCRCRunLengths pins crcFold to the bit-serial reference wherever a run
// can split into whole blocks and a tail: at every length in crcRunLengths,
// up to a full XCV50 FDRI run, for every register address, from random
// starting registers.
func TestCRCRunLengths(t *testing.T) {
	n := fdriRun()
	rng := rand.New(rand.NewSource(29))
	words := make([]uint32, n+1)
	for i := range words {
		words[i] = rng.Uint32()
	}
	want := make([]uint16, len(words)+1) // want[l]: the run words[:l]
	for reg := 0; reg < 16; reg++ {
		for trial := 0; trial < 2; trial++ {
			start := uint16(rng.Uint32())
			want[0] = start
			for i, w := range words {
				want[i+1] = crcSerial(want[i], reg, w)
			}
			for _, l := range crcRunLengths(n) {
				if got := crcFold(start, reg, words[:l]); got != want[l] {
					t.Fatalf("register %d from %#04x, %d words: crcFold %#04x, serial %#04x",
						reg, start, l, got, want[l])
				}
			}
		}
	}
}

// FuzzCRC holds crcFold to the bit-serial reference on arbitrary runs. The
// first byte is the register address (crcFold keeps its low nibble), the
// next two the starting CRC, and each four after them one data word.
func FuzzCRC(f *testing.F) {
	f.Add([]byte{RegFDRI, 0, 0})
	f.Add([]byte{RegCMD, 0xbe, 0xef, 0, 0, 0, CmdRCRC})
	f.Add([]byte{0xff, 0x12, 0x34, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		reg, start := int(data[0]), binary.BigEndian.Uint16(data[1:])
		var words []uint32
		for b := data[3:]; len(b) >= 4; b = b[4:] {
			words = append(words, binary.BigEndian.Uint32(b))
		}
		want := start
		for _, w := range words {
			want = crcSerial(want, reg, w)
		}
		if got := crcFold(start, reg, words); got != want {
			t.Fatalf("register %d from %#04x, %d words: crcFold %#04x, serial %#04x",
				reg, start, len(words), got, want)
		}
	})
}

var crcSink uint16

// BenchmarkCRC folds the FDRI run of an XCV50 full bitstream; MB/s counts
// its data bytes.
func BenchmarkCRC(b *testing.B) {
	words := make([]uint32, fdriRun())
	rng := rand.New(rand.NewSource(1))
	for i := range words {
		words[i] = rng.Uint32()
	}
	b.SetBytes(int64(4 * len(words)))
	for i := 0; i < b.N; i++ {
		crcSink = crcFold(crcSink, RegFDRI, words)
	}
}
