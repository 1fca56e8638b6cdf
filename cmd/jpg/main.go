// Command jpg is the partial-bitstream generation tool: the CLI counterpart
// of the paper's GUI. It initialises a project from the base design's
// complete bitstream, parses a sub-module variant's XDL and UCF files,
// replays the module through the JBits layer, and writes a partial
// bitstream. Options mirror the paper's tool: a floorplan view of the target
// region, write-back onto the base bitstream (option 2), and download to a
// (simulated) board over XHWIF.
//
// Usage:
//
//	jpg -base base.bit -xdl variant.xdl -ucf variant.ucf -o partial.bit \
//	    [-writeback rewritten.bit] [-floorplan] [-strict] [-incremental] \
//	    [-verify] [-download] [-v] [-faults spec] [-retries n] [-download-timeout d]
//
// The same generation engine runs as an HTTP service in cmd/jpgd.
//
// -incremental uses the flow's dirty-frame tracking to emit only the frames
// whose content actually differs from the base — the smallest partial that
// reconfigures the module, at the cost of being tied to this exact base.
//
// With -v the tool traces its stages (project init, XDL parse, partial
// generation, download) and prints a per-stage time summary plus the key
// metrics after the run.
//
// The -download path is hardened: -retries and -download-timeout wrap the
// board in a retrying, verifying reliability layer, and -faults (or
// $JPG_FAULTS) injects deterministic link faults to exercise it — e.g.
// -faults "nth=2,mode=error,seed=7" fails every second download attempt.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bitfile"
	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/xhwif"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jpg:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		basePath  = flag.String("base", "", "complete bitstream of the base design (required)")
		xdlPath   = flag.String("xdl", "", "variant XDL file (required)")
		ucfPath   = flag.String("ucf", "", "variant UCF file (required)")
		outPath   = flag.String("o", "partial.bit", "output partial bitstream")
		writeBack = flag.String("writeback", "", "also write the base bitstream with the module applied (the paper's option 2)")
		floorplan = flag.Bool("floorplan", false, "print the module's floorplan footprint")
		strict    = flag.Bool("strict", false, "reject modules escaping their declared AREA_GROUP columns")
		download  = flag.Bool("download", false, "download to a simulated board and report the reconfiguration time")
		compress  = flag.Bool("compress", false, "emit an MFWR-compressed partial bitstream")
		incr      = flag.Bool("incremental", false, "emit only the frames the module actually changes against the base (a minimal delta partial; not relocatable)")
		verify    = flag.Bool("verify", false, "independently re-decode the generated partial (internal/bitlint) and fail on any error finding")
		verbose   = flag.Bool("v", false, "trace the tool's stages and print a per-stage summary and metrics")
		faultSpec = flag.String("faults", os.Getenv(faults.Env), "inject deterministic download faults (e.g. \"nth=2,mode=error,seed=7\"; default $JPG_FAULTS)")
		retries   = flag.Int("retries", 0, "max download attempts through the reliability layer (0 = xhwif default; implies the layer when > 0)")
		dlTimeout = flag.Duration("download-timeout", 0, "deadline for one download including retries (implies the reliability layer when > 0)")
	)
	flag.Parse()
	ctx := context.Background()
	var col *obs.Collector
	if *verbose {
		col = obs.New()
		ctx = col.Attach(ctx)
	}
	if *basePath == "" || *xdlPath == "" || *ucfPath == "" {
		flag.Usage()
		return fmt.Errorf("-base, -xdl and -ucf are required")
	}
	baseFile, err := os.ReadFile(*basePath)
	if err != nil {
		return err
	}
	baseBS, baseHdr, err := bitfile.Unwrap(baseFile)
	if err != nil {
		return err
	}
	if baseHdr.Part != "" {
		fmt.Printf("base .bit header: design %q, part %s, %s %s\n",
			baseHdr.Design, baseHdr.Part, baseHdr.Date, baseHdr.Time)
	}
	xdlText, err := os.ReadFile(*xdlPath)
	if err != nil {
		return err
	}
	ucfText, err := os.ReadFile(*ucfPath)
	if err != nil {
		return err
	}

	_, sp := obs.Start(ctx, "project.init")
	proj, err := core.NewProject(baseBS)
	sp.End()
	if err != nil {
		return err
	}
	fmt.Printf("project: %s, base bitstream %d bytes\n", proj.Part, len(baseBS))

	_, sp = obs.Start(ctx, "xdl.parse")
	m, err := proj.AddModule(*xdlPath, string(xdlText), string(ucfText))
	sp.End()
	if err != nil {
		return err
	}
	fmt.Println("module:", m.Stats())
	if *floorplan {
		fmt.Print(m.FloorplanASCII(proj.Part))
	}

	gctx, sp := obs.Start(ctx, "generate.partial")
	res, err := proj.GeneratePartialCtx(gctx, m, core.GenerateOptions{
		WriteBack: *writeBack != "",
		Strict:    *strict,
		Compress:  *compress,
		Delta:     *incr,
		Verify:    *verify,
	})
	sp.End()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, wrap(*xdlPath, proj.Part.Name, res.Bitstream), 0o644); err != nil {
		return err
	}
	fmt.Printf("partial bitstream: %d bytes, %d frames (%d changed), columns %d..%d -> %s\n",
		len(res.Bitstream), len(res.FARs), res.FramesChanged, res.Region.C1+1, res.Region.C2+1, *outPath)
	fmt.Printf("size vs full: %.1f%%\n", 100*float64(len(res.Bitstream))/float64(len(baseBS)))
	if *verify {
		fmt.Println("verify: partial re-decoded independently, differential against the port VM clean")
	}

	if *writeBack != "" {
		full := bitstream.WriteFull(proj.Base)
		if err := os.WriteFile(*writeBack, wrap("writeback", proj.Part.Name, full), 0o644); err != nil {
			return err
		}
		fmt.Printf("write-back bitstream: %d bytes -> %s\n", len(full), *writeBack)
	}

	if *download {
		spec, err := faults.Parse(*faultSpec)
		if err != nil {
			return err
		}
		var hw xhwif.HWIF = xhwif.NewBoard(proj.Part)
		var injector *faults.Injector
		if spec.Enabled() {
			injector = faults.Wrap(hw, spec)
			hw = injector
			fmt.Printf("fault injection: %s\n", spec)
		}
		var reliable *xhwif.ReliableHWIF
		if spec.Enabled() || *retries > 0 || *dlTimeout > 0 {
			reliable = xhwif.NewReliable(hw, xhwif.RetryPolicy{
				MaxAttempts: *retries,
				Timeout:     *dlTimeout,
				Verify:      true,
			})
			hw = reliable
		}
		dctx, sp := obs.Start(ctx, "download")
		dsFull, err := hw.DownloadCtx(dctx, baseBS)
		if err != nil {
			sp.End()
			return err
		}
		ds, err := hw.DownloadCtx(dctx, res.Bitstream)
		sp.End()
		if err != nil {
			return err
		}
		fmt.Printf("download (SelectMAP @ %.0f MHz): full %v, partial %v (%.1fx faster)\n",
			xhwif.DefaultClockHz/1e6, dsFull.ModelTime, ds.ModelTime,
			float64(dsFull.ModelTime)/float64(ds.ModelTime))
		if reliable != nil {
			r, a, v := reliable.Counts()
			line := fmt.Sprintf("reliability: %d attempt(s) full, %d attempt(s) partial; %d retr%s, %d abort(s), %d verify failure(s)",
				dsFull.Attempts, ds.Attempts, r, plural(r, "y", "ies"), a, v)
			if injector != nil {
				attempts, injected := injector.Counts()
				line += fmt.Sprintf("; faults injected %d/%d", injected, attempts)
			}
			fmt.Println(line)
		}
	}
	if col != nil {
		fmt.Println("-- stage summary --")
		fmt.Print(col.StageSummary())
		fmt.Println("-- metrics --")
		fmt.Print(obs.Default.Snapshot().Render())
	}
	return nil
}

func plural(n int64, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// wrap encloses raw configuration data in a .bit container with a metadata
// header.
func wrap(design, part string, raw []byte) []byte {
	now := time.Now()
	return bitfile.Wrap(bitfile.Header{
		Design: design,
		Part:   part,
		Date:   now.Format("2006/01/02"),
		Time:   now.Format("15:04:05"),
	}, raw)
}
