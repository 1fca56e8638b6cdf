package bitstream

import "math/bits"

// The configuration logic maintains a 16-bit running CRC over every register
// write (register address and data word), as the real Virtex does. A write
// to the CRC register compares the accumulated value against the written
// value; mismatch aborts configuration. The CmdRCRC command resets it.
//
// Polynomial: CRC-16/IBM (x^16 + x^15 + x^2 + 1, poly 0x8005). The device
// clocks the register once per input bit, MSB out, fed with the 4 low bits
// of the register address followed by the 32 data bits, LSB first: 36 steps
// per write (the test file keeps that bit-serial form as the reference).
//
// crcFold computes the same value by table. Bit-reversed, the register
// shifts right and takes each input bit at its LSB, so the 36-bit operand
// (address nibble, then data word) goes in in its natural bit order. XOR
// the reversed register into the operand's low 16 bits and the next
// register is a linear function of the 36-bit result: the XOR of one table
// entry per slice, bits 0-3 and then four 8-bit slices.

const crcPoly = 0x8005

var (
	// crcTab[k][v] is the reversed register after the operand v<<(4+8k),
	// from a zero register; crcNib[v] likewise for the operand v.
	crcTab [4][256]uint16
	crcNib [16]uint16
)

func init() {
	const rpoly = 0xA001 // crcPoly bit-reversed
	for v := range crcTab[3] {
		r := uint16(v)
		for i := 0; i < 8; i++ {
			r = r>>1 ^ rpoly*(r&1)
		}
		crcTab[3][v] = r
	}
	// A slice with 8 more operand bits after it has its register pushed
	// through 8 more zero steps: one more byte-table lookup.
	after8 := func(r uint16) uint16 { return r>>8 ^ crcTab[3][byte(r)] }
	for k := 2; k >= 0; k-- {
		for v := range crcTab[k] {
			crcTab[k][v] = after8(crcTab[k+1][v])
		}
	}
	// Four zero steps from v equal eight from v<<4, whose low nibble
	// shifts out without feedback.
	for v := range crcNib {
		crcNib[v] = after8(crcTab[0][v<<4])
	}
}

// crcFold folds writes of words to register reg into the running CRC.
func crcFold(crc uint16, reg int, words []uint32) uint16 {
	r := uint64(bits.Reverse16(crc))
	addr := uint64(reg & 0xF)
	for _, w := range words {
		x := (addr | uint64(w)<<4) ^ r
		r = uint64(crcNib[x&0xF] ^ crcTab[0][byte(x>>4)] ^ crcTab[1][byte(x>>12)] ^
			crcTab[2][byte(x>>20)] ^ crcTab[3][byte(x>>28)])
	}
	return bits.Reverse16(uint16(r))
}
