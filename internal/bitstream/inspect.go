package bitstream

import (
	"fmt"
	"strings"
)

// PacketInfo summarises one decoded packet for inspection tools.
type PacketInfo struct {
	Offset int // word offset of the header
	Header
	// First holds a write's first data word (e.g. the CMD code or FAR
	// value).
	First uint32
}

func (pi PacketInfo) String() string {
	op := [4]string{"NOP", "READ", "WRITE", "RSVD"}[pi.Op]
	s := fmt.Sprintf("@%-6d T%d %-5s %-4s count=%d", pi.Offset, pi.Type, op, RegName(pi.Reg), pi.Count)
	if pi.Op == OpWrite && pi.Count >= 1 {
		switch pi.Reg {
		case RegCMD:
			s += " " + CmdName(pi.First)
		case RegFAR, RegCRC, RegFLR:
			s += fmt.Sprintf(" %#08x", pi.First)
		}
	}
	return s
}

// Inspect frames a bitstream as the configuration port does, without
// executing it, and returns the packet list: on error, the packets framed
// before the fault. It tolerates what only a register machine would refuse
// (unknown registers, bad counts, reserved opcodes); it only summarises.
func Inspect(bs []byte) ([]PacketInfo, error) {
	var out []PacketInfo
	err := walk(bs, func(off int, h Header, data []uint32) error {
		pi := PacketInfo{Offset: off, Header: h}
		if len(data) > 0 {
			pi.First = data[0]
		}
		out = append(out, pi)
		return nil
	})
	return out, err
}

// Dump renders a human-readable packet listing.
func Dump(bs []byte) (string, error) {
	pis, err := Inspect(bs)
	var b strings.Builder
	fmt.Fprintf(&b, "bitstream: %d bytes, %d words\n", len(bs), len(bs)/4)
	for _, pi := range pis {
		fmt.Fprintln(&b, pi)
	}
	if err != nil {
		fmt.Fprintf(&b, "DECODE ERROR: %v\n", err)
	}
	return b.String(), err
}
