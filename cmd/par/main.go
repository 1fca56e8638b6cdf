// Command par runs the CAD flow (synthesise, floorplan, place, route,
// bitgen) — the reproduction's counterpart of the Xilinx Foundation
// implementation tools. It builds either a partitioned base design (Phase 1)
// or a sub-module variant project constrained by a base design's UCF
// (Phase 2), emitting the NCD, XDL, UCF and bitstream files the rest of the
// toolchain consumes.
//
// Phase 1 (base design):
//
//	par -part XCV50 -base "u1/=counter:bits=6;u2/=sbox:n=8,seed=3" -o out/base
//
// Phase 2 (variant of instance u1/, floorplanned by the base's UCF):
//
//	par -part XCV50 -variant "u1/=lfsr:bits=6,taps=5.2" -baseucf out/base.ucf -o out/u1_lfsr
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/bitfile"
	"repro/internal/cache"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/flow"
	"repro/internal/ncd"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/timing"
	"repro/internal/ucf"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "par:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		partName = flag.String("part", "XCV50", "target device")
		baseSpec = flag.String("base", "", "base design instances (prefix=module;...)")
		netPath  = flag.String("netlist", "", "implement a .net netlist file instead of generated modules")
		varSpec  = flag.String("variant", "", "variant instance (prefix=module)")
		baseUCF  = flag.String("baseucf", "", "base design UCF (required with -variant; optional with -netlist)")
		outStem  = flag.String("o", "design", "output file stem (writes stem.ncd/.xdl/.ucf/.bit)")
		seed     = flag.Int64("seed", 1, "random seed for placement")
		effort   = flag.Float64("effort", 1.0, "placer effort")
		trace    = flag.String("trace", "", "write a Chrome trace (chrome://tracing) of the run to this file")
		useCache = flag.Bool("cache", cache.EnvEnabled(), "memoize CAD stage results (content-addressed; default $JPG_CACHE/$JPG_CACHE_DIR)")
		cacheDir = flag.String("cache-dir", os.Getenv(cache.EnvDir), "persist the cache on disk under this directory (implies -cache)")
	)
	flag.Parse()
	ctx := context.Background()
	var col *obs.Collector
	if *trace != "" {
		col = obs.New()
		ctx = col.Attach(ctx)
	}
	if *useCache || *cacheDir != "" {
		ctx = cache.With(ctx, cache.New(cache.Options{Dir: *cacheDir}))
	}
	part, err := device.ByName(*partName)
	if err != nil {
		return err
	}
	opts := flow.Options{Seed: *seed, Effort: *effort}

	var a *flow.Artifacts
	switch {
	case *netPath != "":
		if *baseSpec != "" || *varSpec != "" {
			return fmt.Errorf("-netlist excludes -base/-variant")
		}
		text, err := os.ReadFile(*netPath)
		if err != nil {
			return err
		}
		nl, err := netlist.ParseText(string(text))
		if err != nil {
			return err
		}
		var cons *ucf.Constraints
		if *baseUCF != "" {
			ucfText, err := os.ReadFile(*baseUCF)
			if err != nil {
				return err
			}
			if cons, err = ucf.Parse(string(ucfText)); err != nil {
				return err
			}
		}
		if a, err = flow.Implement(ctx, part, nl, cons, opts); err != nil {
			return err
		}
	case *baseSpec != "" && *varSpec == "":
		insts, err := designs.ParseInstanceSpecs(*baseSpec)
		if err != nil {
			return err
		}
		base, err := flow.BuildBase(ctx, part, insts, opts)
		if err != nil {
			return err
		}
		a = &base.Artifacts
		prefixes := make([]string, 0, len(base.Regions))
		for prefix := range base.Regions {
			prefixes = append(prefixes, prefix)
		}
		sort.Strings(prefixes)
		for _, prefix := range prefixes {
			rg := base.Regions[prefix]
			fmt.Printf("region %s -> columns %d..%d\n", prefix, rg.C1+1, rg.C2+1)
		}
	case *varSpec != "" && *baseSpec == "":
		if *baseUCF == "" {
			return fmt.Errorf("-variant requires -baseucf")
		}
		ucfText, err := os.ReadFile(*baseUCF)
		if err != nil {
			return err
		}
		cons, err := ucf.Parse(string(ucfText))
		if err != nil {
			return err
		}
		insts, err := designs.ParseInstanceSpecs(*varSpec)
		if err != nil {
			return err
		}
		if len(insts) != 1 {
			return fmt.Errorf("-variant wants exactly one instance")
		}
		a, err = flow.BuildVariantUCF(ctx, part, cons, insts[0].Prefix, insts[0].Gen, opts)
		if err != nil {
			return err
		}
	default:
		flag.Usage()
		return fmt.Errorf("exactly one of -base or -variant is required")
	}

	st := a.Netlist.Stats()
	fmt.Printf("design %q on %s: %d LUTs, %d FFs, %d nets\n",
		a.Netlist.Name, part.Name, st.LUTs, st.DFFs, st.Nets)
	fmt.Printf("times: %s\n", a.Times)
	fmt.Printf("utilization: %s\n", a.Phys.Utilization())
	if ta, err := timing.Analyze(a.Phys); err == nil {
		fmt.Print(ta.Report())
	}

	netText, err := netlist.EmitText(a.Netlist)
	if err != nil {
		return err
	}
	ncdData, err := ncd.Marshal(a.Phys)
	if err != nil {
		return err
	}
	wrapped := bitfile.Wrap(bitfile.Header{
		Design: a.Netlist.Name + ".ncd",
		Part:   part.Name,
		Date:   time.Now().Format("2006/01/02"),
		Time:   time.Now().Format("15:04:05"),
	}, a.Bitstream)
	for _, f := range []struct {
		suffix string
		data   []byte
	}{
		{".ncd", ncdData},
		{".xdl", []byte(a.XDL)},
		{".ucf", []byte(a.UCF)},
		{".bit", wrapped},
		{".net", []byte(netText)},
	} {
		path := *outStem + f.suffix
		if err := os.WriteFile(path, f.data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(f.data))
	}
	if col != nil {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := col.WriteChromeTrace(f, "par"); err != nil {
			return err
		}
		fmt.Printf("wrote %s (Chrome trace, %d spans)\n", *trace, len(col.Spans()))
	}
	return nil
}
