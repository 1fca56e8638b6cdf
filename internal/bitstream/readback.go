package bitstream

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/frames"
)

// Configuration readback: the inverse data path of configuration, as real
// Virtex devices provide through the FDRO register. A readback request is a
// packet stream (sync, FAR write, CMD RCFG, FDRO read); executing it against
// a device's configuration memory produces the frame data, with one pipeline
// pad frame leading the payload (mirroring the write path's trailing pad).

// WriteReadbackRequest builds the packet stream requesting the given frame
// runs. Total read length per run is (N+1) frames: pad + payload.
func WriteReadbackRequest(p *device.Part, runs []FrameRun) ([]byte, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("bitstream: readback request with no frames")
	}
	var b builder
	b.header()
	b.cmd(CmdRCRC)
	for _, run := range runs {
		if run.N <= 0 {
			return nil, fmt.Errorf("bitstream: empty readback run at %v", run.Start)
		}
		if !p.ValidFAR(run.Start) {
			return nil, fmt.Errorf("bitstream: readback run starts at invalid %v", run.Start)
		}
		b.t1(RegFAR, uint32(run.Start))
		b.cmd(CmdRCFG)
		words := (run.N + 1) * p.FrameWords()
		if words <= t1CountMask {
			b.raw(type1Header(OpRead, RegFDRO, words))
		} else {
			b.raw(type1Header(OpRead, RegFDRO, 0))
			b.raw(type2Header(OpRead, words))
		}
	}
	b.cmd(CmdDESYNCH)
	b.nop(2)
	return wordsToBytes(b.words), nil
}

// ExecuteReadback runs a readback request against a configuration memory and
// returns the raw read words (pads included), as the device would shift out.
func ExecuteReadback(mem *frames.Memory, request []byte) ([]uint32, error) {
	words, err := BytesToWords(request)
	if err != nil {
		return nil, err
	}
	p := mem.Part
	fw := p.FrameWords()
	var out []uint32
	synced := false
	lastReg := -1
	var far device.FAR
	var cmd uint32
	i := 0
	for i < len(words) {
		w := words[i]
		if !synced {
			i++
			if w == SyncWord {
				synced = true
			}
			continue
		}
		h, err := DecodeHeader(w, lastReg)
		if err != nil {
			return nil, err
		}
		if h.Type == PacketType1 {
			lastReg = h.Reg
		}
		i++
		switch h.Op {
		case OpNOP:
		case OpWrite:
			if i+h.Count > len(words) {
				return nil, fmt.Errorf("bitstream: truncated readback request (%d payload words missing)",
					i+h.Count-len(words))
			}
			data := words[i : i+h.Count]
			i += h.Count
			switch h.Reg {
			case RegFAR:
				if len(data) == 1 {
					f := device.FAR(data[0])
					if !p.ValidFAR(f) {
						return nil, fmt.Errorf("bitstream: readback FAR %v invalid", f)
					}
					far = f
				}
			case RegCMD:
				if len(data) == 1 {
					cmd = data[0]
					if cmd == CmdDESYNCH {
						synced = false
						lastReg = -1
					}
				}
			}
		case OpRead:
			if h.Type == PacketType1 && h.Count == 0 {
				// Register select for a following type-2 read.
				continue
			}
			if h.Reg != RegFDRO {
				return nil, fmt.Errorf("bitstream: read of register %s unsupported", RegName(h.Reg))
			}
			if cmd != CmdRCFG {
				return nil, fmt.Errorf("bitstream: FDRO read without RCFG")
			}
			if h.Count%fw != 0 || h.Count < 2*fw {
				return nil, fmt.Errorf("bitstream: FDRO read of %d words (frame length %d)", h.Count, fw)
			}
			// Pipeline pad frame first, then the run of payload frames
			// from the FAR, which is left on the run's last frame.
			n := h.Count/fw - 1
			data, err := mem.Frames(far, n)
			if err != nil {
				return nil, fmt.Errorf("bitstream: readback past end of device: %w", err)
			}
			out = append(out, make([]uint32, fw)...)
			out = append(out, data...)
			far = p.MustFARAt(p.FrameIndex(far) + n - 1)
		}
	}
	return out, nil
}

// ParseReadback splits raw readback words into per-run frame payloads,
// stripping each run's leading pad frame: run i's N frames come back as one
// slice of N*FrameWords words, in device order.
func ParseReadback(p *device.Part, runs []FrameRun, raw []uint32) ([][]uint32, error) {
	fw := p.FrameWords()
	out := make([][]uint32, 0, len(runs))
	off := 0
	for _, run := range runs {
		if run.N <= 0 {
			return nil, fmt.Errorf("bitstream: empty readback run at %v", run.Start)
		}
		need := (run.N + 1) * fw
		if off+need > len(raw) {
			return nil, fmt.Errorf("bitstream: readback data short (%d words, need %d)", len(raw), off+need)
		}
		out = append(out, raw[off+fw:off+need])
		off += need
	}
	if off != len(raw) {
		return nil, fmt.Errorf("bitstream: %d trailing readback words", len(raw)-off)
	}
	return out, nil
}

// ReadbackFrames is the convenience path: request, execute and parse in one
// call, returning the frames of each requested run as one slice.
func ReadbackFrames(mem *frames.Memory, runs []FrameRun) ([][]uint32, error) {
	req, err := WriteReadbackRequest(mem.Part, runs)
	if err != nil {
		return nil, err
	}
	raw, err := ExecuteReadback(mem, req)
	if err != nil {
		return nil, err
	}
	return ParseReadback(mem.Part, runs, raw)
}
