package bitlint

import (
	"go/parser"
	"go/token"
	"strconv"
	"testing"
	"testing/quick"
)

// crcWord is the reference CRC: the register clocked once per bit of the
// 36-bit operand (address nibble, then data word), LSB first.
func crcWord(crc uint16, reg int, word uint32) uint16 {
	v := uint64(reg&0xF) | uint64(word)<<4
	for i := 0; i < 36; i++ {
		fb := (crc >> 15) ^ uint16(v>>uint(i))&1
		crc <<= 1
		crc ^= crcPoly * fb
	}
	return crc
}

// TestCRCTableMatchesSerial pins crcWords to crcWord, one write at a time
// from random states and over multi-word runs.
func TestCRCTableMatchesSerial(t *testing.T) {
	one := func(crc uint16, reg uint8, word uint32) bool {
		r := int(reg % 16)
		return crcWords(crc, r, []uint32{word}) == crcWord(crc, r, word)
	}
	if err := quick.Check(one, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	run := func(crc uint16, reg uint8, words []uint32) bool {
		want := crc
		for _, w := range words {
			want = crcWord(want, int(reg%16), w)
		}
		return crcWords(crc, int(reg%16), words) == want
	}
	if err := quick.Check(run, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCRCIndependentOfWriter keeps bitlint's CRC its own: crc.go may import
// nothing from the package whose output it checks.
func TestCRCIndependentOfWriter(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "crc.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "repro/internal/bitstream" {
			t.Fatalf("crc.go imports %s", path)
		}
	}
}
