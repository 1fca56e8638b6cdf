package bitstream

import (
	"encoding/binary"
	"fmt"

	"repro/internal/device"
	"repro/internal/frames"
)

// Port is the configuration-port virtual machine: it consumes bitstream
// words exactly as the device's configuration logic does and applies frame
// writes to a configuration memory. It is the engine behind the simulated
// board (internal/xhwif) and behind offline bitstream application.
type Port struct {
	Mem   *frames.Memory
	Stats Stats

	synced   bool
	desynced bool // saw DESYNCH: trailing pad words are ignored until re-sync
	started  bool
	crc      uint16
	cmd      uint32
	far      device.FAR
	lastReg  int
	ctl      uint32
	mask     uint32
	cor      uint32
	flr      uint32
	// lastFrame holds the most recently committed FDRI frame, the payload
	// MFWR replicates.
	lastFrame []uint32
}

// Stats accumulates what a bitstream did when applied.
type Stats struct {
	Words         int // total words consumed
	Packets       int // packets processed after sync
	FramesWritten int // frames committed to configuration memory
	CRCChecks     int // successful CRC register comparisons
	Started       bool
}

// NewPort returns a port writing into mem.
func NewPort(mem *frames.Memory) *Port {
	return &Port{Mem: mem, lastReg: -1}
}

// Apply decodes and applies a complete bitstream to mem, returning the
// port statistics. mem is modified in place; on error it may be partially
// written (as on real hardware). The decoded-word buffer is recycled via
// the package word pool: Apply sits on the project-initialisation and
// simulated-download hot paths, where a fresh multi-hundred-KiB decode
// buffer per call would dominate allocation.
func Apply(mem *frames.Memory, bs []byte) (Stats, error) {
	if len(bs)%4 != 0 {
		return Stats{}, fmt.Errorf("bitstream: length %d not a multiple of 4", len(bs))
	}
	slot := wordsPool.Get().(*[]uint32)
	words := *slot
	if cap(words) < len(bs)/4 {
		words = make([]uint32, len(bs)/4)
	} else {
		words = words[:len(bs)/4]
	}
	for i := range words {
		words[i] = binary.BigEndian.Uint32(bs[4*i:])
	}
	p := NewPort(mem)
	err := p.Feed(words) // Feed does not retain words: frames are copied out
	*slot = words[:0]
	wordsPool.Put(slot)
	if err != nil {
		return p.Stats, err
	}
	return p.Stats, nil
}

// Feed consumes bitstream words.
func (pt *Port) Feed(words []uint32) error {
	i := 0
	for i < len(words) {
		w := words[i]
		pt.Stats.Words++
		if !pt.synced {
			i++
			if w == SyncWord {
				pt.synced = true
				pt.desynced = false
			} else if w != DummyWord && !pt.desynced {
				return fmt.Errorf("bitstream: word %#08x before sync (offset %d)", w, i-1)
			}
			continue
		}
		h, err := DecodeHeader(w, pt.lastReg)
		if err != nil {
			return err
		}
		i++
		pt.Stats.Packets++
		if h.Type == PacketType1 {
			pt.lastReg = h.Reg
		}
		switch h.Op {
		case OpNOP:
			continue
		case OpRead:
			return fmt.Errorf("bitstream: read packets are not part of download streams")
		case OpWrite:
			if i+h.Count > len(words) {
				return fmt.Errorf("bitstream: truncated packet (%d words missing)", i+h.Count-len(words))
			}
			if h.Type == PacketType1 && h.Count == 0 {
				// Register select for a following type-2 packet.
				continue
			}
			data := words[i : i+h.Count]
			i += h.Count
			pt.Stats.Words += h.Count
			if err := pt.writeReg(h.Reg, data); err != nil {
				return err
			}
		default:
			return fmt.Errorf("bitstream: reserved opcode %d", h.Op)
		}
	}
	return nil
}

func (pt *Port) writeReg(reg int, data []uint32) error {
	if reg != RegCRC {
		pt.crc = crcFold(pt.crc, reg, data)
	}
	switch reg {
	case RegCRC:
		if len(data) != 1 {
			return fmt.Errorf("bitstream: CRC write of %d words", len(data))
		}
		if uint32(pt.crc) != data[0] {
			return fmt.Errorf("bitstream: CRC mismatch (device %#04x, stream %#04x)", pt.crc, data[0])
		}
		pt.crc = 0
		pt.Stats.CRCChecks++

	case RegCMD:
		if len(data) != 1 {
			return fmt.Errorf("bitstream: CMD write of %d words", len(data))
		}
		pt.cmd = data[0]
		switch pt.cmd {
		case CmdRCRC:
			pt.crc = 0
		case CmdSTART:
			pt.started = true
			pt.Stats.Started = true
		case CmdDESYNCH:
			pt.synced = false
			pt.desynced = true
			pt.lastReg = -1
		}

	case RegFAR:
		if len(data) != 1 {
			return fmt.Errorf("bitstream: FAR write of %d words", len(data))
		}
		f := device.FAR(data[0])
		if !pt.Mem.Part.ValidFAR(f) {
			return fmt.Errorf("bitstream: FAR %v invalid for %s", f, pt.Mem.Part.Name)
		}
		pt.far = f

	case RegFLR:
		if len(data) != 1 {
			return fmt.Errorf("bitstream: FLR write of %d words", len(data))
		}
		pt.flr = data[0]
		if want := uint32(pt.Mem.Part.FrameWords() - 1); pt.flr != want {
			return fmt.Errorf("bitstream: FLR %d does not match %s (want %d) — bitstream for a different part?",
				pt.flr, pt.Mem.Part.Name, want)
		}

	case RegFDRI:
		return pt.writeFrames(data)

	case RegMFWR:
		// Multiple frame write: commit the last FDRI-committed frame to an
		// explicitly addressed FAR (the compressed-bitstream extension).
		if len(data) != 1 {
			return fmt.Errorf("bitstream: MFWR write of %d words", len(data))
		}
		if pt.cmd != CmdWCFG {
			return fmt.Errorf("bitstream: MFWR without WCFG")
		}
		if pt.lastFrame == nil {
			return fmt.Errorf("bitstream: MFWR before any FDRI frame")
		}
		f := device.FAR(data[0])
		if !pt.Mem.Part.ValidFAR(f) {
			return fmt.Errorf("bitstream: MFWR to invalid %v", f)
		}
		if err := pt.Mem.SetFrame(f, pt.lastFrame); err != nil {
			return err
		}
		pt.Stats.FramesWritten++

	case RegCTL:
		if len(data) == 1 {
			pt.ctl = (pt.ctl &^ pt.mask) | (data[0] & pt.mask)
		}
	case RegMASK:
		if len(data) == 1 {
			pt.mask = data[0]
		}
	case RegCOR:
		if len(data) == 1 {
			pt.cor = data[0]
		}
	case RegLOUT:
		// legacy daisy-chain output: ignored
	default:
		return fmt.Errorf("bitstream: write to unknown register %d", reg)
	}
	return nil
}

// writeFrames commits FDRI data: the frame pipeline writes frame k when
// frame k+1 shifts in, so M frames of data configure M-1 frames and the
// final (pad) frame is discarded. The M-1 frames are one run from the FAR,
// committed in one write; a run that passes the last frame is rejected
// before any of its frames is written. The FAR is left on the run's last
// frame.
func (pt *Port) writeFrames(data []uint32) error {
	if pt.cmd != CmdWCFG {
		return fmt.Errorf("bitstream: FDRI write without WCFG (cmd=%s)", CmdName(pt.cmd))
	}
	p := pt.Mem.Part
	fw := p.FrameWords()
	if len(data)%fw != 0 {
		return fmt.Errorf("bitstream: FDRI payload %d words, not a multiple of frame length %d", len(data), fw)
	}
	nf := len(data) / fw
	if nf < 2 {
		return fmt.Errorf("bitstream: FDRI payload of %d frame(s); need at least data+pad", nf)
	}
	if err := pt.Mem.SetFrames(pt.far, data[:(nf-1)*fw]); err != nil {
		return fmt.Errorf("bitstream: FDRI frame write: %w", err)
	}
	pt.Stats.FramesWritten += nf - 1
	pt.far = p.MustFARAt(p.FrameIndex(pt.far) + nf - 2)
	pt.lastFrame = append(pt.lastFrame[:0], data[(nf-2)*fw:(nf-1)*fw]...)
	return nil
}
