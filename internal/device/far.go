package device

import "fmt"

// Configuration memory is organised in vertical frames grouped into columns
// ("majors"), themselves grouped into block types, exactly as on the real
// Virtex. A frame is the atomic unit of (re)configuration.
//
// Block type 0 holds the CLB address space: the center clock column, the CLB
// columns, the two edge IOB columns and the two block-RAM interconnect
// columns. Block type 1 holds the two block-RAM content columns.
//
// Major ordering within block type 0 (a documented simplification of the real
// device's center-out ordering):
//
//	major 0               center clock column   (8 frames)
//	major 1 .. Cols       CLB columns, left->right (48 frames each)
//	major Cols+1          left IOB column       (54 frames)
//	major Cols+2          right IOB column      (54 frames)
//	major Cols+3, Cols+4  BRAM interconnect     (27 frames each)
//
// Block type 1: majors 0 and 1 are the two BRAM content columns (64 frames).

// NumBlockTypes is the number of configuration block types.
const NumBlockTypes = 2

// Block types.
const (
	BlockCLB  = 0 // CLB address space (clock, CLB, IOB, BRAM interconnect)
	BlockBRAM = 1 // block-RAM content
)

// FAR (Frame Address Register) field layout, matching the real Virtex
// positions: block type [27:25], major [24:17], minor [16:9].
const (
	farBlockShift = 25
	farMajorShift = 17
	farMinorShift = 9
	farBlockMask  = 0x7
	farMajorMask  = 0xFF
	farMinorMask  = 0xFF
)

// FAR is a packed frame address.
type FAR uint32

// MakeFAR packs a (block type, major, minor) triple into a FAR word.
func MakeFAR(blockType, major, minor int) FAR {
	return FAR(uint32(blockType&farBlockMask)<<farBlockShift |
		uint32(major&farMajorMask)<<farMajorShift |
		uint32(minor&farMinorMask)<<farMinorShift)
}

// BlockType extracts the block type field.
func (f FAR) BlockType() int { return int(f>>farBlockShift) & farBlockMask }

// Major extracts the major (column) address field.
func (f FAR) Major() int { return int(f>>farMajorShift) & farMajorMask }

// Minor extracts the minor (frame-within-column) address field.
func (f FAR) Minor() int { return int(f>>farMinorShift) & farMinorMask }

func (f FAR) String() string {
	return fmt.Sprintf("FAR{bt=%d maj=%d min=%d}", f.BlockType(), f.Major(), f.Minor())
}

// NumMajors returns the number of majors (columns) in the given block type.
func (p *Part) NumMajors(blockType int) int {
	switch blockType {
	case BlockCLB:
		return p.Cols + 5 // clock + CLBs + 2 IOB + 2 BRAM interconnect
	case BlockBRAM:
		return 2
	default:
		return 0
	}
}

// Major indices of the special columns in block type 0.
func (p *Part) ClockMajor() int        { return 0 }
func (p *Part) CLBMajor(col int) int   { return 1 + col } // col is 0-based
func (p *Part) LeftIOBMajor() int      { return p.Cols + 1 }
func (p *Part) RightIOBMajor() int     { return p.Cols + 2 }
func (p *Part) BRAMIntMajor(i int) int { return p.Cols + 3 + i } // i in {0,1}

// CLBColOfMajor returns the 0-based CLB column for a block-0 major, or
// (-1, false) if the major is not a CLB column.
func (p *Part) CLBColOfMajor(major int) (int, bool) {
	if major >= 1 && major <= p.Cols {
		return major - 1, true
	}
	return -1, false
}

// FramesInMajor returns the number of frames (minors) in the given column.
func (p *Part) FramesInMajor(blockType, major int) int {
	switch blockType {
	case BlockCLB:
		switch {
		case major == 0:
			return FramesClockCol
		case major >= 1 && major <= p.Cols:
			return FramesCLBCol
		case major == p.Cols+1 || major == p.Cols+2:
			return FramesIOBCol
		case major == p.Cols+3 || major == p.Cols+4:
			return FramesBRAMIntCol
		}
	case BlockBRAM:
		if major == 0 || major == 1 {
			return FramesBRAMCol
		}
	}
	return 0
}

// ValidFAR reports whether f addresses an existing frame on this part.
func (p *Part) ValidFAR(f FAR) bool {
	bt := f.BlockType()
	if bt < 0 || bt >= NumBlockTypes {
		return false
	}
	if f.Major() >= p.NumMajors(bt) {
		return false
	}
	return f.Minor() < p.FramesInMajor(bt, f.Major())
}

// NextFAR returns the frame address following f in device order (minor, then
// major, then block type), as the real device's FAR auto-increment does
// during multi-frame FDRI writes. ok is false when f is the last frame.
func (p *Part) NextFAR(f FAR) (next FAR, ok bool) {
	bt, maj, min := f.BlockType(), f.Major(), f.Minor()
	min++
	if min < p.FramesInMajor(bt, maj) {
		return MakeFAR(bt, maj, min), true
	}
	min = 0
	maj++
	if maj < p.NumMajors(bt) {
		return MakeFAR(bt, maj, min), true
	}
	maj = 0
	bt++
	if bt < NumBlockTypes {
		return MakeFAR(bt, maj, min), true
	}
	return 0, false
}

// FirstFAR returns the address of the first frame in device order.
func (p *Part) FirstFAR() FAR { return MakeFAR(0, 0, 0) }

// FrameIndex returns the linear index of frame f in device order, used to
// index flat frame storage. It panics on invalid addresses.
func (p *Part) FrameIndex(f FAR) int {
	if !p.ValidFAR(f) {
		panic(fmt.Sprintf("device: invalid %v for %s", f, p.Name))
	}
	clb, iob, bramInt, bram, _ := p.frameStarts()
	maj, c := f.Major(), p.Cols
	switch {
	case f.BlockType() == BlockBRAM:
		return bram + maj*FramesBRAMCol + f.Minor()
	case maj == 0:
		return f.Minor()
	case maj <= c:
		return clb + (maj-1)*FramesCLBCol + f.Minor()
	case maj <= c+2:
		return iob + (maj-c-1)*FramesIOBCol + f.Minor()
	default:
		return bramInt + (maj-c-3)*FramesBRAMIntCol + f.Minor()
	}
}

// FARAt is the inverse of FrameIndex.
func (p *Part) FARAt(index int) (FAR, error) {
	clb, iob, bramInt, bram, total := p.frameStarts()
	c := p.Cols
	switch {
	case index < 0:
		return 0, fmt.Errorf("device: negative frame index %d", index)
	case index < clb:
		return MakeFAR(BlockCLB, 0, index), nil
	case index < iob:
		i := index - clb
		return MakeFAR(BlockCLB, 1+i/FramesCLBCol, i%FramesCLBCol), nil
	case index < bramInt:
		i := index - iob
		return MakeFAR(BlockCLB, c+1+i/FramesIOBCol, i%FramesIOBCol), nil
	case index < bram:
		i := index - bramInt
		return MakeFAR(BlockCLB, c+3+i/FramesBRAMIntCol, i%FramesBRAMIntCol), nil
	case index < total:
		i := index - bram
		return MakeFAR(BlockBRAM, i/FramesBRAMCol, i%FramesBRAMCol), nil
	}
	return 0, fmt.Errorf("device: frame index %d out of range (%d frames)", index, total)
}

// MustFARAt is FARAt for an index known to be in range, such as one inside
// a run of frames already checked against the part. It panics otherwise.
func (p *Part) MustFARAt(index int) FAR {
	f, err := p.FARAt(index)
	if err != nil {
		panic(err)
	}
	return f
}

// frameStarts returns the linear index of the first frame of the CLB
// columns, the IOB columns, the BRAM interconnect columns and the BRAM
// content columns (block type 1), and the total frame count: the column
// order described at the top of this file, in closed form.
func (p *Part) frameStarts() (clb, iob, bramInt, bram, total int) {
	clb = FramesClockCol
	iob = clb + p.Cols*FramesCLBCol
	bramInt = iob + 2*FramesIOBCol
	bram = bramInt + 2*FramesBRAMIntCol
	return clb, iob, bramInt, bram, bram + 2*FramesBRAMCol
}
