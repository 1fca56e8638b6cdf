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
// bit-reversal MSB first, the textbook CRC order, so crcStep reverses each
// 36-bit operand once and runs the classic byte table over it (a first
// 4-bit step, then four bytes). The test file keeps the bit-serial form.
//
// crcWords takes four writes per step. The register is linear over GF(2)
// in the old register, the address and the data words, so four writes
// leave the XOR of one table entry per input byte: the old register's two
// bytes, the address nibble and the sixteen data bytes. Only the register's
// two lookups depend on the step before. init runs crcStep over four
// writes with one input bit set and fills each table by linearity; fewer
// than four trailing writes go through crcStep.

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

// The register after four writes, each table from a zero start:
// crcReg4[j][v] from the register v<<8j with zero operands, crcAddr4[a]
// from address a with zero words, and crcData4[k][j][v] from address 0 with
// word k v<<8j and the other words zero.
var (
	crcReg4  [2][256]uint16
	crcAddr4 [16]uint16
	crcData4 [4][4][256]uint16
)

func init() {
	four := func(crc uint16, reg int, words [4]uint32) uint16 {
		for _, w := range words {
			crc = crcStep(crc, reg, w)
		}
		return crc
	}
	for a := range crcAddr4 {
		crcAddr4[a] = four(0, a, [4]uint32{})
	}
	for j := range crcReg4 {
		crcReg4[j] = linearByteTable(func(v uint32) uint16 { return four(uint16(v<<(8*j)), 0, [4]uint32{}) })
	}
	for k := range crcData4 {
		for j := range crcData4[k] {
			crcData4[k][j] = linearByteTable(func(v uint32) uint16 {
				var words [4]uint32
				words[k] = v << (8 * j)
				return four(0, 0, words)
			})
		}
	}
}

// linearByteTable tabulates f, a function on bytes that is linear over
// GF(2), from its values on the eight single-bit bytes.
func linearByteTable(f func(v uint32) uint16) (t [256]uint16) {
	for bit := 1; bit < 256; bit <<= 1 {
		fbit := f(uint32(bit))
		for v := bit; v < 2*bit; v++ {
			t[v] = fbit ^ t[v-bit]
		}
	}
	return t
}

// crcStep folds one write of word to register reg into the running CRC.
func crcStep(crc uint16, reg int, word uint32) uint16 {
	// The operand reversed: its first input bit (address bit 0) is bit 35
	// of u, its last (data bit 31) bit 0.
	u := bits.Reverse64(uint64(reg&0xF)|uint64(word)<<4) >> 28
	crc = crc<<4 ^ crcTable[crc>>12^uint16(u>>32)]
	for s := 24; s >= 0; s -= 8 {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^byte(u>>s)]
	}
	return crc
}

// dataShare is one word's share of a four-write step, from its tables t.
func dataShare(t *[4][256]uint16, w uint32) uint16 {
	return t[0][byte(w)] ^ t[1][byte(w>>8)] ^ t[2][byte(w>>16)] ^ t[3][w>>24]
}

// crcWords folds writes of words to register reg into the running CRC.
func crcWords(crc uint16, reg int, words []uint32) uint16 {
	addr := crcAddr4[reg&0xF]
	for ; len(words) >= 4; words = words[4:] {
		crc = crcReg4[0][byte(crc)] ^ crcReg4[1][crc>>8] ^ addr ^
			dataShare(&crcData4[0], words[0]) ^ dataShare(&crcData4[1], words[1]) ^
			dataShare(&crcData4[2], words[2]) ^ dataShare(&crcData4[3], words[3])
	}
	for _, w := range words {
		crc = crcStep(crc, reg, w)
	}
	return crc
}
