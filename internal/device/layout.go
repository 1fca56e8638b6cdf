package device

import "fmt"

// Intra-frame bit layout.
//
// Every frame of a block-0 column is divided into 18-bit row stripes:
//
//	stripe 0        top IOB row
//	stripe r+1      CLB row r (0-based from the top)
//	stripe Rows+1   bottom IOB row
//
// A CLB therefore owns 48 frames x 18 bits = 864 configuration bits (as on
// the real Virtex). We address them with a "local bit" index 0..863 where
// local bit b lives in minor b/18, stripe bit b%18.
//
// Local bit allocation within a CLB (this package's deterministic layout):
//
//	  0.. 15   slice 0, F-LUT truth table (bit i = output for input value i)
//	 16.. 31   slice 0, G-LUT truth table
//	 32.. 47   slice 1, F-LUT truth table
//	 48.. 63   slice 1, G-LUT truth table
//	 64.. 79   slice 0 control word (see SliceCtl* constants)
//	 80.. 95   slice 1 control word
//	 96..863   routing PIPs, in TilePIPs catalog order (pips.go)
//
// IOB configuration bits live in the stripe of their pad (see iob.go).

// CLBLocalBits is the number of configuration bits owned by one CLB.
const CLBLocalBits = FramesCLBCol * 18 // 864

// Local-bit base offsets within a CLB.
const (
	lutBitsBase   = 0  // 4 LUTs x 16 bits
	sliceCtlBase  = 64 // 2 slices x 16 bits
	pipBitsBase   = 96 // routing PIPs
	pipBitsBudget = CLBLocalBits - pipBitsBase
)

// Slice control word bit positions (within a slice's 16-bit control word).
const (
	SliceCtlCKINV  = 0 // invert clock
	SliceCtlCEUsed = 1 // clock-enable input used
	SliceCtlSRUsed = 2 // set/reset input used
	SliceCtlSync   = 3 // SYNC_ATTR: 1 = synchronous set/reset
	SliceCtlFFX    = 4 // X flip-flop in use (XQ registered)
	SliceCtlFFY    = 5 // Y flip-flop in use (YQ registered)
	SliceCtlINITX  = 6 // X flip-flop init/reset value
	SliceCtlINITY  = 7 // Y flip-flop init/reset value
	SliceCtlXMUX   = 8 // 1: X output driven by F LUT; 0: BX bypass
	SliceCtlYMUX   = 9 // 1: Y output driven by G LUT; 0: BY bypass
)

// BitCoord identifies one configuration bit by frame address and bit offset
// within the frame.
type BitCoord struct {
	FAR FAR
	// Bit is the bit offset within the frame, 0-based from the frame's
	// first word's MSB: bit b lives in word b/32, bit position 31-(b%32).
	Bit int
}

func (bc BitCoord) String() string { return fmt.Sprintf("%v bit %d", bc.FAR, bc.Bit) }

// stripeOf returns the stripe index of CLB row r (0-based).
func stripeOfRow(r int) int { return r + 1 }

// CLBBit maps (CLB row, CLB col, local bit) to its configuration-bit
// coordinate. Rows and cols are 0-based. It panics on out-of-range inputs;
// callers validate coordinates at their API boundary.
func (p *Part) CLBBit(row, col, localBit int) BitCoord {
	if row < 0 || row >= p.Rows || col < 0 || col >= p.Cols {
		panic(fmt.Sprintf("device: CLB R%dC%d out of range for %s", row+1, col+1, p.Name))
	}
	if localBit < 0 || localBit >= CLBLocalBits {
		panic(fmt.Sprintf("device: CLB local bit %d out of range", localBit))
	}
	minor := localBit / 18
	return BitCoord{
		FAR: MakeFAR(BlockCLB, p.CLBMajor(col), minor),
		Bit: stripeOfRow(row)*18 + localBit%18,
	}
}

// CLBRowBits returns the frame bit range [lo, hi) that CLB rows r1..r2
// (0-based, inclusive) occupy in every frame of a CLB column: their
// stripes are adjacent, so the bits of a CLB block are one range per frame.
// It panics on out-of-range rows, as CLBBit does.
func (p *Part) CLBRowBits(r1, r2 int) (lo, hi int) {
	if r1 < 0 || r1 > r2 || r2 >= p.Rows {
		panic(fmt.Sprintf("device: CLB rows %d..%d out of range for %s", r1+1, r2+1, p.Name))
	}
	return stripeOfRow(r1) * 18, (stripeOfRow(r2) + 1) * 18
}

// LUTBit returns the coordinate of truth-table bit i (0..15) of the given
// LUT. slice is 0 or 1; lut is LUTF or LUTG.
func (p *Part) LUTBit(row, col, slice, lut, i int) BitCoord {
	if slice < 0 || slice > 1 || (lut != LUTF && lut != LUTG) || i < 0 || i > 15 {
		panic(fmt.Sprintf("device: bad LUT bit (slice=%d lut=%d i=%d)", slice, lut, i))
	}
	return p.CLBBit(row, col, lutBitsBase+slice*32+lut*16+i)
}

// SliceCtlBit returns the coordinate of control bit ctl (SliceCtl*) of the
// given slice.
func (p *Part) SliceCtlBit(row, col, slice, ctl int) BitCoord {
	if slice < 0 || slice > 1 || ctl < 0 || ctl > 15 {
		panic(fmt.Sprintf("device: bad slice ctl bit (slice=%d ctl=%d)", slice, ctl))
	}
	return p.CLBBit(row, col, sliceCtlBase+slice*16+ctl)
}

// LUT identifiers within a slice.
const (
	LUTF = 0
	LUTG = 1
)

// LUTName returns "F" or "G".
func LUTName(lut int) string {
	if lut == LUTF {
		return "F"
	}
	return "G"
}
