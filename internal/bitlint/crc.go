package bitlint

import "math/bits"

// Independent reimplementation of the Virtex configuration CRC, written from
// the protocol description rather than shared with internal/bitstream: a
// 16-bit shift register with polynomial x^16 + x^15 + x^2 + 1 (0x8005),
// clocked once per input bit, fed the 4 low bits of the register address and
// then the 32 data bits, each LSB first. Keeping a second implementation is
// the point — a bug in the writer's CRC cannot cancel out here.
//
// Feeding a value LSB first into this MSB-out register is feeding its
// bit-reversal MSB first, the textbook CRC order, so crcWords reverses each
// 36-bit operand once and runs the classic byte table over it (a first
// 4-bit step, then four bytes). The test file keeps the bit-serial form.

const crcPoly = 0x8005

// crcTable[v] is the register after 8 zero input bits from v<<8. It also
// serves 4-bit steps: 4 zero bits from v<<12 give the same polynomial,
// v·x^16 mod the generator.
var crcTable = func() (t [256]uint16) {
	for v := range t {
		crc := uint16(v) << 8
		for i := 0; i < 8; i++ {
			crc = crc<<1 ^ crcPoly*(crc>>15)
		}
		t[v] = crc
	}
	return t
}()

// crcWords folds writes of words to register reg into the running CRC.
func crcWords(crc uint16, reg int, words []uint32) uint16 {
	for _, w := range words {
		// The operand reversed: its first input bit (address bit 0) is
		// bit 35 of u, its last (data bit 31) bit 0.
		u := bits.Reverse64(uint64(reg&0xF)|uint64(w)<<4) >> 28
		crc = crc<<4 ^ crcTable[crc>>12^uint16(u>>32)]
		for s := 24; s >= 0; s -= 8 {
			crc = crc<<8 ^ crcTable[byte(crc>>8)^byte(u>>s)]
		}
	}
	return crc
}
