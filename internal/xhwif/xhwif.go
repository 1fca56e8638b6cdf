// Package xhwif simulates the board-access layer the paper's JPG tool uses
// to download bitstreams (the Xilinx XHWIF interface): a Virtex device
// behind a SelectMAP configuration port, with a download-time model derived
// from the port's published characteristics (one byte per configuration
// clock, 50 MHz by default).
//
// Downloads are transactional: a bitstream is applied to a staging copy of
// the configuration memory and committed only if the whole stream decodes
// and applies cleanly, so a failed partial reconfiguration leaves the
// running device exactly as it was. ReliableHWIF (reliable.go) layers
// bounded retries, per-download deadlines and verify-after-write readback on
// top of any HWIF — the substrate a runtime reconfiguration manager needs
// over a flaky physical link.
package xhwif

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bitstream"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/obs"
)

// DefaultClockHz is the SelectMAP configuration clock a Board's download
// time model runs at.
const DefaultClockHz = 50e6

// HWIF is the hardware-access interface, mirroring XHWIF's role: a device
// that accepts bitstream downloads and supports configuration readback.
// *Board implements it; ReliableHWIF and the faults injector decorate any
// HWIF and implement it in turn.
type HWIF interface {
	// PartName identifies the device on the board.
	PartName() string
	// DownloadCtx feeds a (full or partial) bitstream to the configuration
	// port. The context carries the caller's deadline, cancellation and
	// request-scoped logger to every layer of the download stack.
	DownloadCtx(ctx context.Context, bs []byte) (DownloadStats, error)
	// Readback returns a copy of the device's configuration memory.
	Readback() *frames.Memory
	// ReadbackFrames reads back only the addressed frames, so
	// verify-after-write can check just the frames a download touched.
	ReadbackFrames(fars []device.FAR) ([][]uint32, error)
	// ExecuteReadback runs a readback packet request (bitstream.
	// WriteReadbackRequest) and returns the raw read words. A request
	// that writes frames (FDRI or MFWR) is refused and changes nothing.
	ExecuteReadback(request []byte) ([]uint32, error)
}

// DownloadStats reports one download.
type DownloadStats struct {
	Bytes         int
	FramesWritten int
	// ModelTime is the modelled transfer time over SelectMAP (8 bits per
	// configuration clock).
	ModelTime time.Duration
	// Started reports whether the bitstream issued the start-up sequence
	// (full configurations do; partial reconfigurations of a running
	// device do not).
	Started bool
	// Attempts counts the download attempts a reliability layer made (1 for
	// a direct Board download).
	Attempts int
}

// Download metrics (always on; see internal/obs): sizes, frame counts and
// modelled SelectMAP transfer times — the observable behind the paper's
// download-time claim (a partial stream configures in a fraction of the
// full stream's time). Rollbacks count failed downloads whose staging state
// was discarded, leaving the device untouched.
var (
	mDownloads     = obs.GetCounter("xhwif.downloads")
	mDownloadBytes = obs.GetCounter("xhwif.bytes_downloaded")
	mFramesWritten = obs.GetCounter("xhwif.frames_written")
	mRollbacks     = obs.GetCounter("xhwif.rollbacks")
	mDownloadNs    = obs.GetHistogram("xhwif.download_model_ns")
	mDownloadSizeB = obs.GetHistogram("xhwif.download_bytes_hist")
)

// Board is a simulated FPGA board holding one device.
type Board struct {
	Part *device.Part

	// mu guards the configuration memory, the running flag and the
	// cumulative counters: downloads are dispatched from parallel workers
	// (experiments farm them through internal/parallel), and a download
	// must observe and commit a consistent memory state.
	mu      sync.Mutex
	mem     *frames.Memory
	running bool

	// Cumulative counters. Guarded by mu; read them through Totals() when
	// any download may be concurrent.
	Downloads      int
	TotalBytes     int
	TotalModelTime time.Duration
}

var _ HWIF = (*Board)(nil)

// NewBoard returns a board with a blank (unconfigured) device.
func NewBoard(p *device.Part) *Board {
	return &Board{Part: p, mem: frames.New(p)}
}

// PartName implements HWIF.
func (b *Board) PartName() string { return b.Part.Name }

// Running reports whether the device has completed a start-up sequence and
// is executing its design.
func (b *Board) Running() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.running
}

// Totals returns the cumulative download counters consistently.
func (b *Board) Totals() (downloads, bytes int, modelTime time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.Downloads, b.TotalBytes, b.TotalModelTime
}

// Download applies the bitstream through the configuration-port VM; a
// partial bitstream on a running device performs dynamic partial
// reconfiguration (the rest of the device keeps its state). It is the
// context-free form of DownloadCtx, for callers that hold a concrete board.
//
// The download is transactional: the stream applies into a staging copy of
// the configuration memory, which replaces the live memory only if every
// packet decoded and applied cleanly. On error the device keeps its exact
// pre-download state (counted by the xhwif.rollbacks metric), unlike real
// hardware, where an aborted SelectMAP transfer leaves frames half-written
// and forces a full reconfiguration — the recovery path ReliableHWIF exists
// to avoid. The staging copy is scratch storage (frames.Memory.Scratch): a
// rejected one goes back to the free list, and so does the memory an
// accepted one replaces, since nothing outside the board holds it.
func (b *Board) Download(bs []byte) (DownloadStats, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	staging := b.mem.Scratch()
	stats, err := bitstream.Apply(staging, bs)
	ds := DownloadStats{
		Bytes:         len(bs),
		FramesWritten: stats.FramesWritten,
		ModelTime:     time.Duration(float64(len(bs)) / DefaultClockHz * float64(time.Second)),
		Started:       stats.Started,
		Attempts:      1,
	}
	if err != nil {
		staging.Release()
		mRollbacks.Inc()
		return ds, fmt.Errorf("xhwif: download failed (device state rolled back): %w", err)
	}
	b.mem.Release()
	b.mem = staging
	if stats.Started {
		b.running = true
	}
	b.Downloads++
	b.TotalBytes += ds.Bytes
	b.TotalModelTime += ds.ModelTime
	mDownloads.Inc()
	mDownloadBytes.Add(int64(ds.Bytes))
	mFramesWritten.Add(int64(ds.FramesWritten))
	mDownloadNs.Observe(ds.ModelTime.Nanoseconds())
	mDownloadSizeB.Observe(int64(ds.Bytes))
	return ds, nil
}

// DownloadCtx implements HWIF: Download gated on the context, run as an
// "xhwif.download" span carrying the bytes, frames written, modelled
// transfer time and start-up flag, and failed with a rolled-back stream's
// error, so a traced request sees the board's side of every download.
func (b *Board) DownloadCtx(ctx context.Context, bs []byte) (DownloadStats, error) {
	if err := ctx.Err(); err != nil {
		return DownloadStats{}, err
	}
	_, sp := obs.Start(ctx, "xhwif.download")
	ds, err := b.Download(bs)
	sp.SetInt("bytes", int64(ds.Bytes))
	sp.SetInt("frames", int64(ds.FramesWritten))
	sp.SetInt("model_us", ds.ModelTime.Microseconds())
	sp.SetBool("started", ds.Started)
	sp.EndErr(err)
	return ds, err
}

// Readback implements HWIF: a copy of the current configuration memory, as
// Virtex readback (FDRO) provides.
func (b *Board) Readback() *frames.Memory {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.mem.Clone()
}

// ReadbackFrames reads the addressed frames only. Every address is
// validated against the part's frame space; an out-of-range FAR is an
// error, not a panic.
func (b *Board) ReadbackFrames(fars []device.FAR) ([][]uint32, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([][]uint32, len(fars))
	for i, f := range fars {
		if !b.Part.ValidFAR(f) {
			return nil, fmt.Errorf("xhwif: readback of invalid %v on %s", f, b.Part.Name)
		}
		frame := make([]uint32, b.Part.FrameWords())
		copy(frame, b.mem.Frame(f))
		out[i] = frame
	}
	return out, nil
}

// ExecuteReadback runs a readback packet request (bitstream.
// WriteReadbackRequest) against the device and returns the raw read words,
// as the SelectMAP port would shift them out. The port runs in its read
// direction: a request that writes frames is refused, so a readback never
// changes the configuration memory.
func (b *Board) ExecuteReadback(request []byte) ([]uint32, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bitstream.ExecuteReadback(b.mem, request)
}
