package bitstream

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/frames"
)

// port is the configuration-port virtual machine: it executes the packets
// walk frames exactly as the device's configuration logic does. The data
// direction is fixed by the entry point, as SelectMAP's read/write pin fixes
// it: a download (Apply) writes frames into mem and refuses every read
// packet; a readback (ExecuteReadback) answers FDRO reads into out and
// refuses frame writes, so it never changes mem.
type port struct {
	mem      *frames.Memory
	readback bool
	stats    Stats
	out      []uint32

	crc uint16
	cmd uint32
	far device.FAR
	// lastFrame holds the most recently committed FDRI frame, the payload
	// MFWR replicates.
	lastFrame []uint32
}

// Stats accumulates what a bitstream did when applied.
type Stats struct {
	Packets       int // packets processed after sync
	FramesWritten int // frames committed to configuration memory
	CRCChecks     int // successful CRC register comparisons
	Started       bool
}

// Apply decodes and applies a complete bitstream to mem, returning the
// port statistics. mem is modified in place; on error it may be partially
// written (as on real hardware).
func Apply(mem *frames.Memory, bs []byte) (Stats, error) {
	pt := port{mem: mem}
	err := walk(bs, pt.packet)
	return pt.stats, err
}

// packet executes one packet the walk framed.
func (pt *port) packet(_ int, h Header, data []uint32) error {
	pt.stats.Packets++
	switch h.Op {
	case OpNOP:
		return nil
	case OpRead:
		if !pt.readback {
			return fmt.Errorf("bitstream: read packets are not part of download streams")
		}
		return pt.read(h)
	case OpWrite:
		if h.Type == PacketType1 && h.Count == 0 {
			// Register select for a following type-2 packet.
			return nil
		}
		return pt.writeReg(h.Reg, data)
	}
	return fmt.Errorf("bitstream: reserved opcode %d", h.Op)
}

func (pt *port) writeReg(reg int, data []uint32) error {
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
		pt.stats.CRCChecks++

	case RegCMD:
		if len(data) != 1 {
			return fmt.Errorf("bitstream: CMD write of %d words", len(data))
		}
		pt.cmd = data[0]
		switch pt.cmd {
		case CmdRCRC:
			pt.crc = 0
		case CmdSTART:
			pt.stats.Started = true
		}

	case RegFAR:
		if len(data) != 1 {
			return fmt.Errorf("bitstream: FAR write of %d words", len(data))
		}
		f := device.FAR(data[0])
		if !pt.mem.Part.ValidFAR(f) {
			return fmt.Errorf("bitstream: FAR %v invalid for %s", f, pt.mem.Part.Name)
		}
		pt.far = f

	case RegFLR:
		if len(data) != 1 {
			return fmt.Errorf("bitstream: FLR write of %d words", len(data))
		}
		if want := uint32(pt.mem.Part.FrameWords() - 1); data[0] != want {
			return fmt.Errorf("bitstream: FLR %d does not match %s (want %d) — bitstream for a different part?",
				data[0], pt.mem.Part.Name, want)
		}

	case RegFDRI:
		if pt.readback {
			return fmt.Errorf("bitstream: FDRI write in a readback request")
		}
		return pt.writeFrames(data)

	case RegMFWR:
		// Multiple frame write: commit the last FDRI-committed frame to an
		// explicitly addressed FAR (the compressed-bitstream extension).
		if pt.readback {
			return fmt.Errorf("bitstream: MFWR write in a readback request")
		}
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
		if !pt.mem.Part.ValidFAR(f) {
			return fmt.Errorf("bitstream: MFWR to invalid %v", f)
		}
		if err := pt.mem.SetFrame(f, pt.lastFrame); err != nil {
			return err
		}
		pt.stats.FramesWritten++

	case RegCTL, RegMASK, RegCOR, RegLOUT:
		// Control, options and the legacy daisy-chain output: accepted and
		// folded into the CRC, with no effect on configuration memory.
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
func (pt *port) writeFrames(data []uint32) error {
	if pt.cmd != CmdWCFG {
		return fmt.Errorf("bitstream: FDRI write without WCFG (cmd=%s)", CmdName(pt.cmd))
	}
	p := pt.mem.Part
	fw := p.FrameWords()
	if len(data)%fw != 0 {
		return fmt.Errorf("bitstream: FDRI payload %d words, not a multiple of frame length %d", len(data), fw)
	}
	nf := len(data) / fw
	if nf < 2 {
		return fmt.Errorf("bitstream: FDRI payload of %d frame(s); need at least data+pad", nf)
	}
	if err := pt.mem.SetFrames(pt.far, data[:(nf-1)*fw]); err != nil {
		return fmt.Errorf("bitstream: FDRI frame write: %w", err)
	}
	pt.stats.FramesWritten += nf - 1
	pt.far = p.MustFARAt(p.FrameIndex(pt.far) + nf - 2)
	pt.lastFrame = append(pt.lastFrame[:0], data[(nf-2)*fw:(nf-1)*fw]...)
	return nil
}

// read answers an FDRO read the way the device shifts readback data out:
// one pipeline pad frame, then the run of frames from the FAR, which is left
// on the run's last frame (mirroring the write path's trailing pad).
func (pt *port) read(h Header) error {
	if h.Type == PacketType1 && h.Count == 0 {
		// Register select for a following type-2 read.
		return nil
	}
	if h.Reg != RegFDRO {
		return fmt.Errorf("bitstream: read of register %s unsupported", RegName(h.Reg))
	}
	if pt.cmd != CmdRCFG {
		return fmt.Errorf("bitstream: FDRO read without RCFG")
	}
	p := pt.mem.Part
	fw := p.FrameWords()
	if h.Count%fw != 0 || h.Count < 2*fw {
		return fmt.Errorf("bitstream: FDRO read of %d words (frame length %d)", h.Count, fw)
	}
	n := h.Count/fw - 1
	data, err := pt.mem.Frames(pt.far, n)
	if err != nil {
		return fmt.Errorf("bitstream: readback past end of device: %w", err)
	}
	pt.out = append(pt.out, make([]uint32, fw)...)
	pt.out = append(pt.out, data...)
	pt.far = p.MustFARAt(p.FrameIndex(pt.far) + n - 1)
	return nil
}
