package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bitstream"
	"repro/internal/device"
	"repro/internal/frames"
)

// E3 reproduces §2.1's reconfiguration-time claim: downloading a partial
// bitstream reconfigures the device proportionally faster than a complete
// download. Times come from the simulated board's SelectMAP model
// (8 bits per 50 MHz configuration clock).
func E3(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	parts := []string{"XCV50", "XCV300", "XCV1000"}
	fractions := []int{8, 4, 3, 2}
	if cfg.Quick {
		parts = []string{"XCV50"}
		fractions = []int{4, 2}
	}
	t := &Table{
		ID:    "E3",
		Title: "reconfiguration time: full vs partial download over SelectMAP @ 50 MHz",
		Claim: "partial reconfiguration time shrinks with bitstream size, making " +
			"run-time module swaps far cheaper than full reconfiguration",
		Columns: []string{"part", "download", "bytes", "frames", "model time", "speedup"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, name := range parts {
		p, err := device.ByName(name)
		if err != nil {
			return nil, err
		}
		mem := frames.New(p)
		for i := 0; i < 200; i++ {
			mem.SetBit(p.CLBBit(rng.Intn(p.Rows), rng.Intn(p.Cols), rng.Intn(device.CLBLocalBits)), true)
		}
		board, err := cfg.board(p)
		if err != nil {
			return nil, err
		}
		full := bitstream.WriteFull(mem)
		dsFull, err := board.DownloadCtx(ctx, full)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.Name, "full", dsFull.Bytes, dsFull.FramesWritten,
			fmtDur(dsFull.ModelTime), "1.0x")
		for _, den := range fractions {
			cols := p.Cols / den
			rg := frames.Region{R1: 0, C1: 0, R2: p.Rows - 1, C2: cols - 1}
			partial, err := bitstream.WritePartialForFARs(mem, rg.FARs(p))
			if err != nil {
				return nil, err
			}
			ds, err := board.DownloadCtx(ctx, partial)
			if err != nil {
				return nil, err
			}
			t.AddRow(p.Name, fmt.Sprintf("partial 1/%d", den), ds.Bytes, ds.FramesWritten,
				fmtDur(ds.ModelTime), fmt.Sprintf("%.1fx", float64(dsFull.ModelTime)/float64(ds.ModelTime)))
		}
	}
	t.Note("times are modelled transfer times (bytes / 50 MHz SelectMAP), as on real hardware")
	t.Note("VERDICT: PASS if each partial's speedup is roughly the inverse of its column fraction")
	return t, nil
}

func fmtDur(d time.Duration) string { return d.Round(time.Microsecond).String() }
