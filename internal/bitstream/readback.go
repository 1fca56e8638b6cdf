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
// returns the raw read words (pads included), as the device would shift
// them out. The request runs on the configuration port in its read
// direction: it is framed and checked as a download is, any frame write
// (FDRI or MFWR) is refused, and mem is never written.
func ExecuteReadback(mem *frames.Memory, request []byte) ([]uint32, error) {
	pt := port{mem: mem, readback: true}
	if err := walk(request, pt.packet); err != nil {
		return nil, err
	}
	return pt.out, nil
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
