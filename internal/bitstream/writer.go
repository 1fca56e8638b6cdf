package bitstream

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/obs"
)

// FrameRun is a contiguous range of frames in device order: N frames
// starting at Start.
type FrameRun struct {
	Start device.FAR
	N     int
}

// RunsForFARs coalesces a list of frame addresses (any order, duplicates
// allowed) into maximal contiguous runs in device order.
func RunsForFARs(p *device.Part, fars []device.FAR) []FrameRun {
	idx := make([]int, len(fars))
	for i, f := range fars {
		idx[i] = p.FrameIndex(f)
	}
	return runsForIndices(p, idx)
}

// runsForIndices is RunsForFARs over device-order frame indices. It sorts
// idx in place.
func runsForIndices(p *device.Part, idx []int) []FrameRun {
	slices.Sort(idx)
	idx = slices.Compact(idx)
	var runs []FrameRun
	for len(idx) > 0 {
		n := 1
		for n < len(idx) && idx[n] == idx[0]+n {
			n++
		}
		runs = append(runs, FrameRun{Start: p.MustFARAt(idx[0]), N: n})
		idx = idx[n:]
	}
	return runs
}

// builder accumulates packet words, maintaining the same running CRC the
// device will compute, so the trailing CRC write always matches.
type builder struct {
	words   []uint32
	crc     uint16
	lastReg int
	// pool holds the slot the word buffer came from, when the builder was
	// made by newBuilder; finish returns the buffer there. A zero-value
	// builder (pool nil) still works and simply allocates.
	pool *[]uint32
}

// Emission metrics (always on; see internal/obs): total bytes produced and
// the word-buffer pool's reuse rate — a reuse is a Get whose recycled
// buffer was already large enough, an alloc is a Get that had to grow it.
var (
	mEmissions  = obs.GetCounter("bitstream.emissions")
	mBytesOut   = obs.GetCounter("bitstream.bytes_emitted")
	mPoolReuses = obs.GetCounter("bitstream.pool_reuses")
	mPoolAllocs = obs.GetCounter("bitstream.pool_allocs")
)

// wordsPool recycles packet-word buffers across emissions and applications.
// Bitstream emission is on the per-variant hot path of the experiment farms
// (one partial bitstream per CAD run), so the multi-hundred-KiB word buffers
// are reused rather than reallocated per call.
var wordsPool = sync.Pool{New: func() any { return new([]uint32) }}

// newBuilder returns a builder whose word buffer comes from the pool, grown
// to at least capHint words so emission appends never reallocate.
func newBuilder(capHint int) builder {
	slot := wordsPool.Get().(*[]uint32)
	buf := *slot
	if cap(buf) < capHint {
		buf = make([]uint32, 0, capHint)
		mPoolAllocs.Inc()
	} else {
		mPoolReuses.Inc()
	}
	return builder{words: buf[:0], pool: slot}
}

// finish serialises the accumulated words to bytes and recycles the word
// buffer. The builder must not be used afterwards.
func (b *builder) finish() []byte {
	out := wordsToBytes(b.words)
	mEmissions.Inc()
	mBytesOut.Add(int64(len(out)))
	if b.pool != nil {
		*b.pool = b.words[:0]
		wordsPool.Put(b.pool)
		b.words, b.pool = nil, nil
	}
	return out
}

func (b *builder) raw(w uint32) { b.words = append(b.words, w) }

// t1 emits a type-1 write packet.
func (b *builder) t1(reg int, data ...uint32) {
	b.raw(type1Header(OpWrite, reg, len(data)))
	b.words = append(b.words, data...)
	b.crc = crcFold(b.crc, reg, data)
	b.lastReg = reg
}

func (b *builder) cmd(c uint32) {
	b.t1(RegCMD, c)
	if c == CmdRCRC {
		b.crc = 0
	}
}

// writeCRC emits the CRC check packet (which resets the running CRC).
func (b *builder) writeCRC() {
	b.raw(type1Header(OpWrite, RegCRC, 1))
	b.raw(uint32(b.crc))
	b.crc = 0
}

func (b *builder) nop(n int) {
	for i := 0; i < n; i++ {
		b.raw(type1Header(OpNOP, 0, 0))
	}
}

func (b *builder) header() {
	b.raw(DummyWord)
	b.raw(DummyWord)
	b.raw(SyncWord)
}

// fdri emits the frame data for a run: the frames' payloads followed by one
// zero pad frame (the device's frame pipeline discards the final frame, so
// N+1 frames of data configure N frames). The run is one slice of the
// configuration memory and is copied into the packet buffer in one append;
// a run off the device fails before anything is emitted.
func (b *builder) fdri(mem *frames.Memory, run FrameRun) error {
	data, err := mem.Frames(run.Start, run.N)
	if err != nil {
		return fmt.Errorf("bitstream: %w", err)
	}
	fw := mem.Part.FrameWords()
	count := (run.N + 1) * fw
	if count <= t1CountMask {
		b.raw(type1Header(OpWrite, RegFDRI, count))
	} else {
		b.raw(type1Header(OpWrite, RegFDRI, 0))
		b.raw(type2Header(OpWrite, count))
	}
	b.lastReg = RegFDRI
	start := len(b.words)
	b.words = append(b.words, data...)
	b.words = append(b.words, make([]uint32, fw)...) // pad frame
	b.crc = crcFold(b.crc, RegFDRI, b.words[start:])
	return nil
}

// WriteFull serialises the complete configuration memory as a full
// bitstream, the product of a conventional bitgen run.
func WriteFull(mem *frames.Memory) []byte {
	p := mem.Part
	b := newBuilder((p.TotalFrames()+1)*p.FrameWords() + 64)
	b.header()
	b.cmd(CmdRCRC)
	b.t1(RegFLR, uint32(p.FrameWords()-1))
	b.t1(RegCOR, 0)
	b.t1(RegMASK, 0xFFFFFFFF)
	b.t1(RegCTL, 0)
	b.t1(RegFAR, uint32(p.FirstFAR()))
	b.cmd(CmdWCFG)
	if err := b.fdri(mem, FrameRun{Start: p.FirstFAR(), N: p.TotalFrames()}); err != nil {
		panic(err) // full-device run is always valid
	}
	b.cmd(CmdLFRM)
	b.writeCRC()
	b.cmd(CmdSTART)
	b.cmd(CmdDESYNCH)
	b.nop(4)
	return b.finish()
}

// WritePartial serialises only the given frame runs as a partial bitstream:
// the stream a JPG-style tool downloads to reconfigure part of an already
// running device. No start-up sequence is issued.
func WritePartial(mem *frames.Memory, runs []FrameRun) ([]byte, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("bitstream: partial bitstream with no frames")
	}
	p := mem.Part
	capHint := 64
	for _, run := range runs {
		capHint += (run.N+1)*p.FrameWords() + 8
	}
	b := newBuilder(capHint)
	b.header()
	b.cmd(CmdRCRC)
	b.t1(RegFLR, uint32(p.FrameWords()-1))
	for _, run := range runs {
		if run.N <= 0 {
			return nil, fmt.Errorf("bitstream: empty frame run at %v", run.Start)
		}
		b.t1(RegFAR, uint32(run.Start))
		b.cmd(CmdWCFG)
		if err := b.fdri(mem, run); err != nil {
			return nil, err
		}
	}
	b.cmd(CmdLFRM)
	b.writeCRC()
	b.cmd(CmdDESYNCH)
	b.nop(4)
	return b.finish(), nil
}

// WritePartialForFARs is WritePartial over an uncoalesced frame list.
func WritePartialForFARs(mem *frames.Memory, fars []device.FAR) ([]byte, error) {
	return WritePartial(mem, RunsForFARs(mem.Part, fars))
}

func wordsToBytes(words []uint32) []byte {
	out := make([]byte, 4*len(words))
	for i, w := range words {
		binary.BigEndian.PutUint32(out[4*i:], w)
	}
	return out
}

// BytesToWords converts a bitstream byte slice to big-endian words.
func BytesToWords(bs []byte) ([]uint32, error) {
	if len(bs)%4 != 0 {
		return nil, fmt.Errorf("bitstream: length %d not a multiple of 4", len(bs))
	}
	words := make([]uint32, len(bs)/4)
	for i := range words {
		words[i] = binary.BigEndian.Uint32(bs[4*i:])
	}
	return words, nil
}
