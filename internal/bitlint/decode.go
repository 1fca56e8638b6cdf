package bitlint

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/device"
	"repro/internal/frames"
)

// decoder walks a packet stream word by word, recording findings instead of
// bailing on the first problem, and maintains its own view of the device
// state: sync, running CRC, selected command, FAR, and the frame pipeline.
type decoder struct {
	p   *device.Part
	rep *Report
	mem *frames.Memory

	crc       uint16
	synced    bool
	desynched bool // saw DESYNCH: only pad words expected until re-sync
	// cmd is the most recent CMD-register write: the configuration logic
	// gates FDRI/MFWR on the *current* command being WCFG, so any
	// intervening command disarms frame writes.
	cmd     uint32
	far     device.FAR
	farSet  bool // a FAR write has been seen since sync
	flrSeen bool
	lastReg int
	// lastFrame is the most recently committed frame — the payload an MFWR
	// write replicates.
	lastFrame []uint32

	trailerNoted bool
	dead         bool // frame image diverged; keep linting, stop comparing
}

// Decode independently parses a full or partial bitstream, inferring the
// target part from its FLR write. It returns an error only when decoding
// cannot start at all (odd length, no sync, no or unknown FLR); every other
// problem is a structured finding in the report.
func Decode(bs []byte) (*Report, error) {
	p, err := prescanPart(bs)
	if err != nil {
		return nil, err
	}
	return DecodeFor(p, bs), nil
}

// DecodeFor is Decode with the target part pinned by the caller (partial
// bitstreams re-applied to a known device, fuzzing, tests). All problems,
// including a missing or mismatched FLR, are findings.
func DecodeFor(p *device.Part, bs []byte) *Report {
	return decodeInto(p, frames.New(p), bs)
}

// DecodeOnto overlays the stream onto a copy of base — the independent view
// of "download this partial onto a device currently configured as base".
func DecodeOnto(base *frames.Memory, bs []byte) *Report {
	return decodeInto(base.Part, base.Clone(), bs)
}

// prescanPart scans the raw words for the FLR write that pins the part,
// without trusting any other stream structure.
func prescanPart(bs []byte) (*device.Part, error) {
	if len(bs)%4 != 0 {
		return nil, fmt.Errorf("bitlint: stream length %d is not word-aligned", len(bs))
	}
	synced := false
	for i := 0; i+4 <= len(bs); i += 4 {
		w := binary.BigEndian.Uint32(bs[i:])
		if !synced {
			synced = w == bitstream.SyncWord
			continue
		}
		h, err := bitstream.DecodeHeader(w, -1)
		if err != nil || h.Type != bitstream.PacketType1 {
			continue
		}
		if h.Reg == bitstream.RegFLR && h.Op == bitstream.OpWrite && h.Count == 1 && i+8 <= len(bs) {
			flr := binary.BigEndian.Uint32(bs[i+4:])
			for _, p := range device.All() {
				if uint32(p.FrameWords()-1) == flr {
					return p, nil
				}
			}
			return nil, fmt.Errorf("bitlint: FLR %d matches no known part", flr)
		}
	}
	if !synced {
		return nil, fmt.Errorf("bitlint: no sync word in %d bytes", len(bs))
	}
	return nil, fmt.Errorf("bitlint: no FLR write found; cannot identify part")
}

func decodeInto(p *device.Part, mem *frames.Memory, bs []byte) *Report {
	mDecodes.Inc()
	rep := &Report{Part: p, Frames: mem}
	d := &decoder{p: p, rep: rep, mem: mem, lastReg: -1}
	if len(bs)%4 != 0 {
		rep.add(SevError, "unaligned-length", -1, "stream length %d is not a multiple of 4", len(bs))
		bs = bs[:len(bs)/4*4]
	}
	words := make([]uint32, len(bs)/4)
	for i := range words {
		words[i] = binary.BigEndian.Uint32(bs[4*i:])
	}
	d.run(words)
	return rep
}

func (d *decoder) run(words []uint32) {
	i := 0
	everSynced := false
	// prevWasSelect tracks whether the previous packet was a zero-count
	// type-1 write — the register select a type-2 packet is supposed to
	// follow immediately.
	prevWasSelect := false
	for i < len(words) {
		w := words[i]
		if !d.synced {
			if w == bitstream.SyncWord {
				d.synced = true
				d.desynched = false
				d.lastReg = -1
				everSynced = true
			} else if w != bitstream.DummyWord {
				if d.desynched {
					// .bit trailers pad with dummy words or bare type-1 NOP
					// headers; anything else is suspicious.
					if h, err := bitstream.DecodeHeader(w, -1); err == nil &&
						h.Type == bitstream.PacketType1 && h.Op == bitstream.OpNOP && h.Count == 0 {
						i++
						continue
					}
					if !d.trailerNoted {
						d.rep.add(SevWarning, "trailer-junk", i,
							"non-pad word %#08x after DESYNCH", w)
						d.trailerNoted = true
					}
				} else {
					d.rep.add(SevError, "junk-before-sync", i,
						"word %#08x before sync (device would reject the stream)", w)
				}
			}
			i++
			continue
		}

		h, err := bitstream.DecodeHeader(w, d.lastReg)
		if err != nil {
			// Header decoding is lost; anything after this word is guesswork.
			d.rep.add(SevError, "bad-header", i, "%v", err)
			return
		}
		d.rep.Packets++
		if h.Type == bitstream.PacketType1 {
			d.lastReg = h.Reg
		} else if !prevWasSelect {
			// DecodeHeader already rejects a type-2 with no select at all;
			// flag the looser case of a select separated from its type-2.
			d.rep.add(SevWarning, "type2-stale-select", i,
				"type-2 packet inherits register %s from a non-adjacent select",
				bitstream.RegName(h.Reg))
		}
		prevWasSelect = h.Type == bitstream.PacketType1 && h.Op == bitstream.OpWrite && h.Count == 0
		hdrOff := i
		i++

		switch h.Op {
		case bitstream.OpNOP:
			continue
		case bitstream.OpRead:
			d.rep.add(SevError, "read-in-download", hdrOff,
				"read packet (register %s) in a download stream", bitstream.RegName(h.Reg))
			continue
		case bitstream.OpWrite:
			if i+h.Count > len(words) {
				d.rep.add(SevError, "truncated-packet", hdrOff,
					"stream ends mid-payload (%d of %d words missing)",
					i+h.Count-len(words), h.Count)
				return
			}
			if h.Type == bitstream.PacketType1 && h.Count == 0 {
				// Register select for a following type-2 packet.
				if i < len(words) {
					if nh, err := bitstream.DecodeHeader(words[i], h.Reg); err != nil || nh.Type != bitstream.PacketType2 {
						d.rep.add(SevWarning, "dangling-select", hdrOff,
							"zero-count type-1 select of %s not followed by a type-2 packet",
							bitstream.RegName(h.Reg))
					}
				}
				continue
			}
			data := words[i : i+h.Count]
			i += h.Count
			d.writeReg(hdrOff, h.Reg, data)
		default:
			d.rep.add(SevError, "reserved-opcode", hdrOff, "reserved opcode %d", h.Op)
		}
	}

	switch {
	case !everSynced:
		d.rep.add(SevError, "no-sync", -1, "no sync word: stream never enters packet processing")
	case d.synced:
		d.rep.add(SevWarning, "no-desynch", -1, "stream ends while still synced (no DESYNCH)")
	}
	if everSynced && d.rep.CRCChecks == 0 {
		d.rep.add(SevWarning, "no-crc-check", -1, "stream never verifies its CRC")
	}
	if everSynced && d.rep.FramesWritten > 0 && !d.flrSeen {
		d.rep.add(SevWarning, "no-flr", -1, "frame writes without an FLR (frame length) write")
	}
}

// singleWord lints the count of a one-word register write, returning false
// when the write cannot be interpreted.
func (d *decoder) singleWord(off, reg int, data []uint32) bool {
	if len(data) == 1 {
		return true
	}
	d.rep.add(SevError, "bad-reg-count", off,
		"%s write of %d words (want 1)", bitstream.RegName(reg), len(data))
	return false
}

func (d *decoder) writeReg(off, reg int, data []uint32) {
	// Every register write except the CRC comparison folds into the running
	// CRC, register address first — mirroring the device's configuration
	// logic with bitlint's own CRC implementation.
	if reg != bitstream.RegCRC {
		d.crc = crcWords(d.crc, reg, data)
	}

	switch reg {
	case bitstream.RegCRC:
		if !d.singleWord(off, reg, data) {
			return
		}
		if uint32(d.crc) != data[0] {
			d.rep.add(SevError, "crc-mismatch", off,
				"running CRC %#04x, stream claims %#04x", d.crc, data[0])
		} else {
			d.rep.CRCChecks++
		}
		d.crc = 0

	case bitstream.RegCMD:
		if !d.singleWord(off, reg, data) {
			return
		}
		d.command(off, data[0])

	case bitstream.RegFAR:
		if !d.singleWord(off, reg, data) {
			return
		}
		f := device.FAR(data[0])
		if !d.p.ValidFAR(f) {
			d.rep.add(SevError, "invalid-far", off, "%v does not exist on %s", f, d.p.Name)
			d.dead = true
			return
		}
		d.far = f
		d.farSet = true

	case bitstream.RegFLR:
		if !d.singleWord(off, reg, data) {
			return
		}
		d.flrSeen = true
		if want := uint32(d.p.FrameWords() - 1); data[0] != want {
			d.rep.add(SevError, "flr-mismatch", off,
				"FLR %d but %s frames are %d words (FLR %d) — stream for a different part?",
				data[0], d.p.Name, d.p.FrameWords(), want)
		}

	case bitstream.RegFDRI:
		d.writeFrames(off, data)

	case bitstream.RegMFWR:
		if !d.singleWord(off, reg, data) {
			return
		}
		if d.cmd != bitstream.CmdWCFG {
			d.rep.add(SevError, "mfwr-without-wcfg", off, "MFWR write outside WCFG")
			return
		}
		if d.lastFrame == nil {
			d.rep.add(SevError, "mfwr-no-frame", off, "MFWR before any FDRI frame")
			return
		}
		f := device.FAR(data[0])
		if !d.p.ValidFAR(f) {
			d.rep.add(SevError, "invalid-far", off, "MFWR to %v, which does not exist on %s", f, d.p.Name)
			return
		}
		if !d.dead {
			if err := d.mem.SetFrame(f, d.lastFrame); err != nil {
				d.rep.add(SevError, "frame-write", off, "%v", err)
				return
			}
		}
		d.rep.FramesWritten++

	case bitstream.RegCTL, bitstream.RegMASK, bitstream.RegCOR:
		if len(data) != 1 {
			d.rep.add(SevWarning, "bad-reg-count", off,
				"%s write of %d words (want 1)", bitstream.RegName(reg), len(data))
		}
	case bitstream.RegLOUT:
		// Legacy daisy-chain output: harmless.
	case bitstream.RegSTAT, bitstream.RegFDRO:
		d.rep.add(SevError, "write-to-read-only", off,
			"write to read-only register %s", bitstream.RegName(reg))
	default:
		d.rep.add(SevError, "unknown-reg", off, "write to unknown register %d", reg)
	}
}

func (d *decoder) command(off int, cmd uint32) {
	d.cmd = cmd
	switch cmd {
	case bitstream.CmdNULL, bitstream.CmdWCFG, bitstream.CmdLFRM:
	case bitstream.CmdRCRC:
		d.crc = 0
	case bitstream.CmdSTART:
		d.rep.Started = true
	case bitstream.CmdRCFG, bitstream.CmdRCAP:
		d.rep.add(SevWarning, "readback-cmd", off,
			"%s command in a download stream", bitstream.CmdName(cmd))
	case bitstream.CmdAGHIGH, bitstream.CmdSWITCH:
		// Start-up sequencing commands: legal, no state we track.
	case bitstream.CmdDESYNCH:
		d.synced = false
		d.desynched = true
		d.lastReg = -1
	default:
		d.rep.add(SevWarning, "unknown-cmd", off, "unknown command code %d", cmd)
	}
}

// writeFrames replays an FDRI payload through the frame pipeline: N+1 frames
// of data configure N frames, the trailing pad frame is discarded, and the
// FAR auto-increments through the device's frame order.
func (d *decoder) writeFrames(off int, data []uint32) {
	if d.cmd != bitstream.CmdWCFG {
		d.rep.add(SevError, "fdri-without-wcfg", off,
			"FDRI write outside WCFG (frames would not commit)")
		return
	}
	fw := d.p.FrameWords()
	if len(data)%fw != 0 {
		d.rep.add(SevError, "fdri-partial-frame", off,
			"FDRI payload of %d words is not a multiple of the %d-word frame", len(data), fw)
		return
	}
	nf := len(data) / fw
	if nf < 2 {
		d.rep.add(SevError, "fdri-short", off,
			"FDRI payload of %d frame(s); the pipeline needs data plus a pad frame", nf)
		return
	}
	if !d.farSet {
		d.rep.add(SevWarning, "fdri-without-far", off,
			"FDRI write before any FAR write (device would start at frame 0)")
	}
	for k := 0; k < nf-1; k++ {
		if !d.p.ValidFAR(d.far) {
			d.rep.add(SevError, "fdri-overrun", off,
				"frame %d of the run falls off the end of %s", k, d.p.Name)
			d.dead = true
			return
		}
		if !d.dead {
			if err := d.mem.SetFrame(d.far, data[k*fw:(k+1)*fw]); err != nil {
				d.rep.add(SevError, "frame-write", off, "%v", err)
				d.dead = true
				return
			}
		}
		d.rep.FramesWritten++
		if k < nf-2 {
			next, ok := d.p.NextFAR(d.far)
			if !ok {
				d.rep.add(SevError, "fdri-overrun", off,
					"frame %d of the run falls off the end of %s", k+1, d.p.Name)
				d.dead = true
				return
			}
			d.far = next
		}
	}
	d.lastFrame = append(d.lastFrame[:0], data[(nf-2)*fw:(nf-1)*fw]...)
}
