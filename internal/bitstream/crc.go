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
// crcStep folds one write by table. Bit-reversed, the register shifts right
// and takes each input bit at its LSB, so the 36-bit operand (address
// nibble, then data word) goes in in its natural bit order. XOR the reversed
// register into the operand's low 16 bits and the next register is a linear
// function of the 36-bit result: the XOR of one table entry per slice, bits
// 0-3 and then four 8-bit slices.
//
// crcFold folds four writes per step (slicing-by-N, Kounavis and Berry,
// ISCC 2005). The register is linear over GF(2) in the old register, the
// address and the four words, so after four writes it is the XOR of one
// table entry per byte of each: two for the old register, one for the
// address nibble and sixteen for the data. Only the two register lookups
// wait on the previous step. init runs crcStep over four writes with one
// input bit set and fills each table by linearity; a run's last writes,
// fewer than four, go through crcStep.

const crcPoly = 0x8005

var (
	// crcTab[k][v] is the reversed register after the operand v<<(4+8k),
	// from a zero register; crcNib[v] likewise for the operand v.
	crcTab [4][256]uint16
	crcNib [16]uint16

	// After four writes from a zero register: crcReg4[j][v] from the
	// reversed register v<<8j with zero operands, crcAddr4[a] from address
	// a with zero words, and crcData4[k][j][v] from address 0 with word k
	// v<<8j and the other words zero.
	crcReg4  [2][256]uint16
	crcAddr4 [16]uint16
	crcData4 [4][4][256]uint16
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

	four := func(r uint16, addr uint64, words [4]uint32) uint16 {
		for _, w := range words {
			r = crcStep(r, addr, w)
		}
		return r
	}
	for a := range crcAddr4 {
		crcAddr4[a] = four(0, uint64(a), [4]uint32{})
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

// crcStep folds a write of w to the register with address nibble addr into
// the reversed register r.
func crcStep(r uint16, addr uint64, w uint32) uint16 {
	x := (addr | uint64(w)<<4) ^ uint64(r)
	return crcNib[x&0xF] ^ crcTab[0][byte(x>>4)] ^ crcTab[1][byte(x>>12)] ^
		crcTab[2][byte(x>>20)] ^ crcTab[3][byte(x>>28)]
}

// dataShare is one word's share of a four-write step, from its tables t.
func dataShare(t *[4][256]uint16, w uint32) uint16 {
	return t[0][byte(w)] ^ t[1][byte(w>>8)] ^ t[2][byte(w>>16)] ^ t[3][w>>24]
}

// crcFold folds writes of words to register reg into the running CRC.
func crcFold(crc uint16, reg int, words []uint32) uint16 {
	r := bits.Reverse16(crc)
	addr := uint64(reg & 0xF)
	a4 := crcAddr4[addr]
	for ; len(words) >= 4; words = words[4:] {
		d := a4 ^ dataShare(&crcData4[0], words[0]) ^ dataShare(&crcData4[1], words[1]) ^
			dataShare(&crcData4[2], words[2]) ^ dataShare(&crcData4[3], words[3])
		r = crcReg4[0][byte(r)] ^ crcReg4[1][r>>8] ^ d
	}
	for _, w := range words {
		r = crcStep(r, addr, w)
	}
	return bits.Reverse16(r)
}
