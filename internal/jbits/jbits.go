// Package jbits is the low-level resource-manipulation API over Virtex
// configuration memory, playing the role the Xilinx JBits Java API plays in
// the paper: typed get/set access to named device resources — LUT truth
// tables, slice control bits, I/O pad modes and routing PIPs — addressed by
// device coordinates rather than frame offsets.
//
// Everything here is a pure function of (part, configuration memory); JBits
// carries no state of its own, so one instance can be used for any number of
// designs.
package jbits

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/frames"
)

// JBits wraps one part's configuration memory.
type JBits struct {
	Part *device.Part
	Mem  *frames.Memory
}

// New returns a JBits view over mem.
func New(mem *frames.Memory) *JBits {
	return &JBits{Part: mem.Part, Mem: mem}
}

// checkCLB validates CLB coordinates.
func (j *JBits) checkCLB(row, col int) error {
	if row < 0 || row >= j.Part.Rows || col < 0 || col >= j.Part.Cols {
		return fmt.Errorf("jbits: CLB %s out of range for %s", device.TileName(row, col), j.Part.Name)
	}
	return nil
}

// LUTValue is a 16-entry truth table: bit i is the LUT output when the
// inputs (F4..F1 or G4..G1) form the binary value i.
type LUTValue uint16

// SetLUT programs a LUT truth table. slice is 0/1; lut is device.LUTF or
// device.LUTG.
func (j *JBits) SetLUT(row, col, slice, lut int, v LUTValue) error {
	if err := j.checkCLB(row, col); err != nil {
		return err
	}
	if slice < 0 || slice > 1 || (lut != device.LUTF && lut != device.LUTG) {
		return fmt.Errorf("jbits: bad slice/lut (%d, %d)", slice, lut)
	}
	for i := 0; i < 16; i++ {
		j.Mem.SetBit(j.Part.LUTBit(row, col, slice, lut, i), v>>i&1 == 1)
	}
	return nil
}

// GetLUT reads a LUT truth table.
func (j *JBits) GetLUT(row, col, slice, lut int) (LUTValue, error) {
	if err := j.checkCLB(row, col); err != nil {
		return 0, err
	}
	if slice < 0 || slice > 1 || (lut != device.LUTF && lut != device.LUTG) {
		return 0, fmt.Errorf("jbits: bad slice/lut (%d, %d)", slice, lut)
	}
	var v LUTValue
	for i := 0; i < 16; i++ {
		if j.Mem.Bit(j.Part.LUTBit(row, col, slice, lut, i)) {
			v |= 1 << i
		}
	}
	return v, nil
}

// SetSliceCtl sets one slice control bit (device.SliceCtl*).
func (j *JBits) SetSliceCtl(row, col, slice, ctl int, v bool) error {
	if err := j.checkCLB(row, col); err != nil {
		return err
	}
	if slice < 0 || slice > 1 || ctl < 0 || ctl > 15 {
		return fmt.Errorf("jbits: bad slice ctl (%d, %d)", slice, ctl)
	}
	j.Mem.SetBit(j.Part.SliceCtlBit(row, col, slice, ctl), v)
	return nil
}

// GetSliceCtl reads one slice control bit.
func (j *JBits) GetSliceCtl(row, col, slice, ctl int) (bool, error) {
	if err := j.checkCLB(row, col); err != nil {
		return false, err
	}
	if slice < 0 || slice > 1 || ctl < 0 || ctl > 15 {
		return false, fmt.Errorf("jbits: bad slice ctl (%d, %d)", slice, ctl)
	}
	return j.Mem.Bit(j.Part.SliceCtlBit(row, col, slice, ctl)), nil
}

// SetPIP turns a PIP on or off. The PIP must come from the part's catalog
// (device.TilePIPs or the routing graph, including Graph.FindPIP).
func (j *JBits) SetPIP(pip device.PIP, on bool) {
	j.Mem.SetBit(j.Part.PIPBit(pip), on)
}

// GetPIP reads a PIP state.
func (j *JBits) GetPIP(pip device.PIP) bool {
	return j.Mem.Bit(j.Part.PIPBit(pip))
}

// SetPadMode sets an I/O pad control bit (device.PadCtl*).
func (j *JBits) SetPadMode(pad device.Pad, ctl int, v bool) error {
	if !j.Part.ValidPad(pad) {
		return fmt.Errorf("jbits: pad %s not on %s", pad.Name(), j.Part.Name)
	}
	j.Mem.SetBit(j.Part.PadModeBit(pad, ctl), v)
	return nil
}

// GetPadMode reads an I/O pad control bit.
func (j *JBits) GetPadMode(pad device.Pad, ctl int) (bool, error) {
	if !j.Part.ValidPad(pad) {
		return false, fmt.Errorf("jbits: pad %s not on %s", pad.Name(), j.Part.Name)
	}
	return j.Mem.Bit(j.Part.PadModeBit(pad, ctl)), nil
}

// ClearRegion blanks every CLB in the region. The region's rows own one bit
// range in each frame of its columns, and its columns' frames are one run in
// device order, so it clears that range over the run rather than bit by bit.
func (j *JBits) ClearRegion(rg frames.Region) error {
	if !rg.Valid(j.Part) {
		return fmt.Errorf("jbits: region %v invalid for %s", rg, j.Part.Name)
	}
	lo, hi := j.Part.CLBRowBits(rg.R1, rg.R2)
	start := device.MakeFAR(device.BlockCLB, j.Part.CLBMajor(rg.C1), 0)
	return j.Mem.ClearBits(start, rg.Cols()*device.FramesCLBCol, lo, hi)
}

// ActivePIPs enumerates the PIPs of tile (row, col) whose configuration bit
// is set.
func (j *JBits) ActivePIPs(row, col int) ([]device.PIP, error) {
	if err := j.checkCLB(row, col); err != nil {
		return nil, err
	}
	var out []device.PIP
	for _, pip := range j.Part.TilePIPs(row, col) {
		if j.GetPIP(pip) {
			out = append(out, pip)
		}
	}
	return out, nil
}

// SetBRAMWord writes one 16-bit word of block-RAM content (addr 0..255).
func (j *JBits) SetBRAMWord(side, block, addr int, v uint16) error {
	if !j.Part.ValidBRAM(side, block) || addr < 0 || addr >= device.BRAMWordsPerBlock {
		return fmt.Errorf("jbits: bad BRAM word (side=%d block=%d addr=%d)", side, block, addr)
	}
	for b := 0; b < device.BRAMWordBits; b++ {
		j.Mem.SetBit(j.Part.BRAMBit(side, block, addr*device.BRAMWordBits+b), v>>b&1 == 1)
	}
	return nil
}

// GetBRAMWord reads one 16-bit word of block-RAM content.
func (j *JBits) GetBRAMWord(side, block, addr int) (uint16, error) {
	if !j.Part.ValidBRAM(side, block) || addr < 0 || addr >= device.BRAMWordsPerBlock {
		return 0, fmt.Errorf("jbits: bad BRAM word (side=%d block=%d addr=%d)", side, block, addr)
	}
	var v uint16
	for b := 0; b < device.BRAMWordBits; b++ {
		if j.Mem.Bit(j.Part.BRAMBit(side, block, addr*device.BRAMWordBits+b)) {
			v |= 1 << b
		}
	}
	return v, nil
}

// SetBRAMContent writes a block's full 256-word content.
func (j *JBits) SetBRAMContent(side, block int, words *[device.BRAMWordsPerBlock]uint16) error {
	for addr, v := range words {
		if err := j.SetBRAMWord(side, block, addr, v); err != nil {
			return err
		}
	}
	return nil
}

// GetBRAMContent reads a block's full content.
func (j *JBits) GetBRAMContent(side, block int) (*[device.BRAMWordsPerBlock]uint16, error) {
	var out [device.BRAMWordsPerBlock]uint16
	for addr := range out {
		v, err := j.GetBRAMWord(side, block, addr)
		if err != nil {
			return nil, err
		}
		out[addr] = v
	}
	return &out, nil
}
