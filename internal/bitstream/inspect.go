package bitstream

import (
	"fmt"
	"strings"
)

// PacketInfo summarises one decoded packet for inspection tools.
type PacketInfo struct {
	Offset int // word offset of the header
	Type   int
	Op     int
	Reg    int
	Count  int
	// First holds the first data word (e.g. the CMD code or FAR value) for
	// short packets.
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

// Inspect decodes a bitstream without applying it and returns the packet
// list. It tolerates unknown registers (it only summarises).
func Inspect(bs []byte) ([]PacketInfo, error) {
	words, err := BytesToWords(bs)
	if err != nil {
		return nil, err
	}
	var out []PacketInfo
	synced := false
	lastReg := -1
	i := 0
	for i < len(words) {
		w := words[i]
		if !synced {
			if w == SyncWord {
				synced = true
			}
			i++
			continue
		}
		h, err := DecodeHeader(w, lastReg)
		if err != nil {
			return out, fmt.Errorf("at word %d: %w", i, err)
		}
		pi := PacketInfo{Offset: i, Type: h.Type, Op: h.Op, Reg: h.Reg, Count: h.Count}
		if h.Type == PacketType1 {
			lastReg = h.Reg
		}
		i++
		if h.Op == OpWrite {
			if i+h.Count > len(words) {
				return out, fmt.Errorf("at word %d: truncated packet (%d payload words missing)",
					pi.Offset, i+h.Count-len(words))
			}
			if h.Count >= 1 {
				pi.First = words[i]
			}
			if h.Reg == RegCMD && h.Count == 1 && words[i] == CmdDESYNCH {
				// As on the device, a re-sync starts with no register
				// selected.
				synced = false
				lastReg = -1
			}
			i += h.Count
		}
		out = append(out, pi)
	}
	return out, nil
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
