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
	b.fdriHeader((run.N + 1) * fw)
	start := len(b.words)
	b.words = append(b.words, data...)
	b.words = append(b.words, make([]uint32, fw)...) // pad frame
	b.crc = crcFold(b.crc, RegFDRI, b.words[start:])
	return nil
}

// fdriHeader opens an FDRI write of count words.
func (b *builder) fdriHeader(count int) {
	if count <= t1CountMask {
		b.raw(type1Header(OpWrite, RegFDRI, count))
	} else {
		b.raw(type1Header(OpWrite, RegFDRI, 0))
		b.raw(type2Header(OpWrite, count))
	}
	b.lastReg = RegFDRI
}

// fullHead emits what precedes a full bitstream's FDRI write: sync, the
// register set-up and WCFG.
func (b *builder) fullHead(p *device.Part) {
	b.header()
	b.cmd(CmdRCRC)
	b.t1(RegFLR, uint32(p.FrameWords()-1))
	b.t1(RegCOR, 0)
	b.t1(RegMASK, 0xFFFFFFFF)
	b.t1(RegCTL, 0)
	b.t1(RegFAR, uint32(p.FirstFAR()))
	b.cmd(CmdWCFG)
}

// fullTail emits what follows a full bitstream's frame data: LFRM, the CRC
// check and the start-up sequence. It returns the CRC word's index.
func (b *builder) fullTail() (crc int) {
	b.cmd(CmdLFRM)
	crc = len(b.words) + 1
	b.writeCRC()
	b.cmd(CmdSTART)
	b.cmd(CmdDESYNCH)
	b.nop(4)
	return crc
}

// WriteFull serialises the complete configuration memory as a full
// bitstream, the product of a conventional bitgen run.
func WriteFull(mem *frames.Memory) []byte {
	p := mem.Part
	b := newBuilder((p.TotalFrames()+1)*p.FrameWords() + 64)
	b.fullHead(p)
	if err := b.fdri(mem, FrameRun{Start: p.FirstFAR(), N: p.TotalFrames()}); err != nil {
		panic(err) // full-device run is always valid
	}
	b.fullTail()
	return b.finish()
}

// PatchFull returns a copy of full, a stream WriteFull wrote for a memory
// of mem's part, with the dirty frames rewritten from mem. It equals
// WriteFull(mem) when full was written from a memory that differs from mem
// in those frames at most. It overwrites the dirty frames' words and mends
// the CRC word without refolding the stream: the words' XOR difference
// folds into a difference register, which crcCarry carries to the CRC
// write. The cost is the dirty frames' words plus the copy, not a pass over
// the device. dirty may be in any order and repeat frames. A stream of
// another length, or whose words outside the frame data and the CRC differ
// from WriteFull's, is an error.
func PatchFull(full []byte, mem *frames.Memory, dirty []device.FAR) ([]byte, error) {
	p := mem.Part
	fw := p.FrameWords()
	count := (p.TotalFrames() + 1) * fw
	// The stream outside its frame data: head and FDRI header, then the
	// tail, which starts count words further on in the stream.
	shell := builder{words: make([]uint32, 0, 32)}
	shell.fullHead(p)
	shell.fdriHeader(count)
	data := len(shell.words)
	crcAt := shell.fullTail() + count
	if len(full) != 4*(len(shell.words)+count) {
		return nil, fmt.Errorf("bitstream: patch: %d-byte stream is not a full %s bitstream", len(full), p.Name)
	}
	for i, w := range shell.words {
		at := i
		if i >= data {
			at += count
		}
		if at != crcAt && binary.BigEndian.Uint32(full[4*at:]) != w {
			return nil, fmt.Errorf("bitstream: patch: word %d is not a full %s bitstream's", at, p.Name)
		}
	}
	idx := make([]int, len(dirty))
	for i, f := range dirty {
		if !p.ValidFAR(f) {
			return nil, fmt.Errorf("bitstream: patch: invalid %v for %s", f, p.Name)
		}
		idx[i] = p.FrameIndex(f)
	}
	slices.Sort(idx)
	idx = slices.Compact(idx)
	words, err := mem.Frames(p.FirstFAR(), p.TotalFrames())
	if err != nil {
		return nil, fmt.Errorf("bitstream: %w", err)
	}

	out := slices.Clone(full)
	diff := make([]uint32, fw)
	var d uint16 // the CRC difference, carried up to word pos of the data
	pos := 0
	for _, i := range idx {
		frame := out[4*(data+i*fw) : 4*(data+(i+1)*fw)]
		for k, w := range words[i*fw : (i+1)*fw] {
			diff[k] = w ^ binary.BigEndian.Uint32(frame[4*k:])
			binary.BigEndian.PutUint32(frame[4*k:], w)
		}
		d = crcFold(crcCarry(d, i*fw-pos), 0, diff)
		pos = (i + 1) * fw
	}
	// The rest of the data, its pad frame and the LFRM write.
	d = crcCarry(d, count-pos+1)
	crcWord := out[4*crcAt:]
	binary.BigEndian.PutUint32(crcWord, binary.BigEndian.Uint32(crcWord)^uint32(d))
	mEmissions.Inc()
	mBytesOut.Add(int64(len(out)))
	return out, nil
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
