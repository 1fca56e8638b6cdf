// Package bitstream implements the Virtex packet-based configuration
// protocol: a codec that serialises configuration memory into full or
// partial bitstreams, and a configuration-port virtual machine that applies
// bitstreams to configuration memory the way the device's configuration
// logic does (sync word, type-1/type-2 packets, FAR auto-increment, frame
// pipelining with a trailing pad frame, and a running CRC).
//
// The packet structure follows the documented Virtex protocol (XAPP151);
// exact field widths are fixed by this package and used consistently by the
// writer and the port.
package bitstream

import (
	"encoding/binary"
	"fmt"
)

// SyncWord marks the start of packet processing, as on the real device.
const SyncWord = 0xAA995566

// DummyWord pads the bitstream header before the sync word.
const DummyWord = 0xFFFFFFFF

// Packet header encoding:
//
//	type 1: [31:29]=001 [28:27]=op [26:13]=register [10:0]=word count
//	type 2: [31:29]=010 [28:27]=op [26:0]=word count (register from the
//	        preceding type-1 header, as on the real device)
const (
	hdrTypeShift = 29
	hdrOpShift   = 27
	hdrRegShift  = 13
	hdrOpMask    = 0x3
	hdrRegMask   = 0x3FFF
	t1CountMask  = 0x7FF
	t2CountMask  = 0x7FFFFFF
)

// Packet types. A type-1 packet addresses a register directly; a type-2
// packet extends the word count and inherits the register from the
// immediately preceding type-1 header.
const (
	PacketType1 = 1
	PacketType2 = 2
)

// Packet opcodes.
const (
	OpNOP   = 0
	OpRead  = 1
	OpWrite = 2
)

// Configuration registers.
const (
	RegCRC  = 0  // CRC check value
	RegFAR  = 1  // frame address
	RegFDRI = 2  // frame data input
	RegFDRO = 3  // frame data output (readback)
	RegCMD  = 4  // command
	RegCTL  = 5  // control
	RegMASK = 6  // control write mask
	RegSTAT = 7  // status (read only)
	RegLOUT = 8  // legacy data out
	RegCOR  = 9  // configuration options
	RegFLR  = 11 // frame length
)

var regNames = map[int]string{
	RegCRC: "CRC", RegFAR: "FAR", RegFDRI: "FDRI", RegFDRO: "FDRO",
	RegCMD: "CMD", RegCTL: "CTL", RegMASK: "MASK", RegSTAT: "STAT",
	RegLOUT: "LOUT", RegCOR: "COR", RegFLR: "FLR", RegMFWR: "MFWR",
}

// RegName returns the register mnemonic.
func RegName(reg int) string {
	if n, ok := regNames[reg]; ok {
		return n
	}
	return fmt.Sprintf("REG%d", reg)
}

// CMD register command codes.
const (
	CmdNULL    = 0
	CmdWCFG    = 1 // write configuration (enable FDRI frame writes)
	CmdLFRM    = 3 // last frame
	CmdRCFG    = 4 // read configuration
	CmdSTART   = 5 // begin start-up sequence
	CmdRCAP    = 6
	CmdRCRC    = 7 // reset CRC
	CmdAGHIGH  = 8
	CmdSWITCH  = 9
	CmdDESYNCH = 13 // leave packet processing
)

var cmdNames = map[uint32]string{
	CmdNULL: "NULL", CmdWCFG: "WCFG", CmdLFRM: "LFRM", CmdRCFG: "RCFG",
	CmdSTART: "START", CmdRCAP: "RCAP", CmdRCRC: "RCRC", CmdAGHIGH: "AGHIGH",
	CmdSWITCH: "SWITCH", CmdDESYNCH: "DESYNCH",
}

// CmdName returns the command mnemonic.
func CmdName(cmd uint32) string {
	if n, ok := cmdNames[cmd]; ok {
		return n
	}
	return fmt.Sprintf("CMD%d", cmd)
}

// type1Header builds a type-1 packet header word.
func type1Header(op, reg, count int) uint32 {
	return uint32(PacketType1)<<hdrTypeShift |
		uint32(op&hdrOpMask)<<hdrOpShift |
		uint32(reg&hdrRegMask)<<hdrRegShift |
		uint32(count&t1CountMask)
}

// type2Header builds a type-2 packet header word.
func type2Header(op, count int) uint32 {
	return uint32(PacketType2)<<hdrTypeShift |
		uint32(op&hdrOpMask)<<hdrOpShift |
		uint32(count&t2CountMask)
}

// Header describes a decoded packet header: the packet type, opcode, target
// register and payload word count. For a type-2 packet Reg is inherited from
// the preceding type-1 register select.
type Header struct {
	Type, Op, Reg, Count int
}

// DecodeHeader decodes one packet header word. prevReg is the register
// selected by the most recent type-1 header (-1 if none since sync): a
// type-2 header without one, or with a zero word count, is malformed — the
// device would latch data into an undefined register or stall — and decodes
// to a descriptive error rather than silently succeeding.
func DecodeHeader(w uint32, prevReg int) (Header, error) {
	typ := int(w >> hdrTypeShift)
	op := int(w>>hdrOpShift) & hdrOpMask
	switch typ {
	case PacketType1:
		return Header{PacketType1, op, int(w>>hdrRegShift) & hdrRegMask, int(w & t1CountMask)}, nil
	case PacketType2:
		if prevReg < 0 {
			return Header{}, fmt.Errorf("bitstream: type-2 packet %#08x without a preceding type-1 register select", w)
		}
		if w&t2CountMask == 0 {
			return Header{}, fmt.Errorf("bitstream: type-2 packet %#08x with zero word count", w)
		}
		return Header{PacketType2, op, prevReg, int(w & t2CountMask)}, nil
	default:
		return Header{}, fmt.Errorf("bitstream: bad packet header %#08x (type %d)", w, typ)
	}
}

// walk frames a configuration stream into packets as the device's
// configuration logic does and hands each one to visit: the header's word
// offset, the header, and a write's payload. Before the first sync word only
// dummy words may appear; after a DESYNCH command every word is ignored until
// the next sync word, and the register select a type-2 header inherits is
// forgotten. The first error, the walk's or visit's, ends the walk.
//
// The words are decoded into a pooled buffer: Apply runs on every simulated
// download, where a fresh multi-hundred-KiB buffer per call would dominate
// allocation. visit must not retain the payload slices it is handed.
func walk(bs []byte, visit func(off int, h Header, data []uint32) error) error {
	if len(bs)%4 != 0 {
		return fmt.Errorf("bitstream: length %d not a multiple of 4", len(bs))
	}
	slot := wordsPool.Get().(*[]uint32)
	words := *slot
	if cap(words) < len(bs)/4 {
		words = make([]uint32, len(bs)/4)
	} else {
		words = words[:len(bs)/4]
	}
	defer func() {
		*slot = words[:0]
		wordsPool.Put(slot)
	}()
	for i := range words {
		words[i] = binary.BigEndian.Uint32(bs[4*i:])
	}

	synced, desynced := false, false
	lastReg := -1
	for i := 0; i < len(words); i++ {
		w := words[i]
		if !synced {
			if w == SyncWord {
				synced, desynced = true, false
			} else if w != DummyWord && !desynced {
				return fmt.Errorf("bitstream: word %#08x before sync (offset %d)", w, i)
			}
			continue
		}
		h, err := DecodeHeader(w, lastReg)
		if err != nil {
			return fmt.Errorf("%w (offset %d)", err, i)
		}
		if h.Type == PacketType1 {
			lastReg = h.Reg
		}
		var data []uint32
		if h.Op == OpWrite {
			if missing := i + 1 + h.Count - len(words); missing > 0 {
				return fmt.Errorf("bitstream: truncated packet at offset %d (%d payload words missing)", i, missing)
			}
			data = words[i+1 : i+1+h.Count]
		}
		if err := visit(i, h, data); err != nil {
			return err
		}
		i += len(data)
		if h.Reg == RegCMD && len(data) == 1 && data[0] == CmdDESYNCH {
			synced, desynced, lastReg = false, true, -1
		}
	}
	return nil
}
