// Command jpgbench regenerates the paper's evaluation: each experiment
// (E1..E9, see DESIGN.md) prints the table reproducing one claim from
// §2.1/§4.1/Figure 4 of the paper.
//
// Usage:
//
//	jpgbench                 # run everything at full scale, all cores
//	jpgbench -exp e1,e5      # selected experiments; an unknown id is an
//	                         # error (-exp none runs no table experiment)
//	jpgbench -quick          # shrunken sweeps (seconds instead of minutes)
//	jpgbench -part XCV100    # device for the CAD-heavy experiments
//	jpgbench -workers 1      # strictly serial CAD runs (results identical)
//	jpgbench -starts 4       # multi-start placement: 4 seeded anneals per CAD
//	                         # run, best placement wins (deterministic for any
//	                         # worker count)
//	jpgbench -json out.json  # also time each experiment serial vs parallel
//	                         # and write a perf record (BENCH_parallel.json)
//	jpgbench -trace t.json   # write a Chrome trace (chrome://tracing) of the
//	                         # pooled runs: per-stage spans on per-worker lanes
//	jpgbench -metrics        # print the metrics registry snapshot after the run
//	jpgbench -cache          # memoize CAD stages (content-addressed; results
//	                         # are byte-identical, only wall-clock changes)
//	jpgbench -cache-dir d    # persist the cache on disk under d
//	jpgbench -faults spec    # inject deterministic download faults (or
//	                         # $JPG_FAULTS); boards gain a retrying,
//	                         # verifying reliability layer, results identical
//	jpgbench -retries n      # bound download attempts per board download
//	jpgbench -download-timeout d  # deadline per download incl. retries
//	jpgbench -verify         # re-decode every emitted bitstream with the
//	                         # independent verifier (internal/bitlint) and fail
//	                         # on any error finding (results identical)
//	jpgbench -incremental    # also run the E10 edit storm (delta-driven
//	                         # incremental flow); with -json the edit->partial
//	                         # stats land in the record for CI's gate
//	jpgbench -cpuprofile f   # write a pprof CPU profile of the run
//	jpgbench -memprofile f   # write a pprof heap profile at exit
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/parallel"
)

var all = []struct {
	id  string
	run func(context.Context, experiments.Config) (*experiments.Table, error)
}{
	{"e1", experiments.E1},
	{"e2", experiments.E2},
	{"e3", experiments.E3},
	{"e4", experiments.E4},
	{"e5", experiments.E5},
	{"e6", experiments.E6},
	{"e7", experiments.E7},
	{"e8", experiments.E8},
	{"e9", experiments.E9},
}

// perfVersion is the schema version of the perf record. Version 3 added
// build-cache statistics (nullable speedups, warm-rerun timings and
// per-stage hit rates) to the jpgbench record.
// Version 4 added derived histogram quantiles (p50/p95/p99) to metric
// snapshots and error status (err) to span records.
// Version 5 added multi-start placement metadata (requested_starts) and a
// per-stage breakdown (seconds and fraction of CAD time in map, place,
// route and bitgen) to each jpgbench experiment record, the numbers CI's
// stage-time regression gate compares against its committed baseline.
const perfVersion = 5

// perfRecord is the schema of the -json output: wall-clock of each selected
// experiment run serially (Workers=1) and through the worker pool, so PRs
// that touch the execution layer have a trajectory to compare against. The
// record is self-describing: Version is the schema version (bumped on
// incompatible change; see perfVersion) and Metrics snapshots the
// process-wide registry after the pooled runs — since version 4 each
// histogram carries derived p50/p95/p99 upper-bound estimates, so the
// record captures tail latency, not just mean and count.
type perfRecord struct {
	Version int    `json:"version"`
	Tool    string `json:"tool"`
	Part    string `json:"part"`
	Seed    int64  `json:"seed"`
	Quick   bool   `json:"quick"`
	NumCPU  int    `json:"num_cpu"`
	// RequestedWorkers is the raw -workers flag (0 = auto); Workers is the
	// pool width it resolved to (all cores, or $JPG_WORKERS). Recording both
	// makes a null speedup diagnosable: a pooled run that was accidentally
	// serial shows requested 0 resolved to 1.
	RequestedWorkers int `json:"requested_workers"`
	Workers          int `json:"workers"`
	// RequestedStarts is the -starts flag: annealing starts per placement
	// (0 = single-start).
	RequestedStarts int              `json:"requested_starts,omitempty"`
	Experiments     []perfExperiment `json:"experiments"`
	// Cache summarises the build cache after the runs (nil when -cache is
	// off): bounds, per-stage hits/misses and hit rates.
	Cache *cacheRecord `json:"cache,omitempty"`
	// Incremental carries the E10 edit-storm stats (-incremental), the
	// record CI's regression gate compares against its committed baseline.
	Incremental *experiments.EditStormStats `json:"incremental,omitempty"`
	Metrics     obs.Snapshot                `json:"metrics"`
}

type perfExperiment struct {
	ID            string  `json:"id"`
	SerialSeconds float64 `json:"serial_seconds"`
	// ParallelSeconds times the pooled run with a cold cache (or no cache).
	ParallelSeconds float64 `json:"parallel_seconds"`
	// Speedup is serial/parallel; null when no parallelism is possible
	// (workers <= 1 or a single-CPU host), where the "parallel" run is just
	// a second serial run and the ratio would be measurement noise.
	Speedup *float64 `json:"speedup"`
	// WarmSeconds/WarmSpeedup time a cache-warm rerun of the pooled
	// configuration (only with -cache); WarmSpeedup is cold/warm.
	WarmSeconds *float64 `json:"warm_seconds,omitempty"`
	WarmSpeedup *float64 `json:"warm_speedup,omitempty"`
	// Stages breaks the pooled run down by CAD stage: seconds spent inside
	// map, place, route and bitgen summed over every CAD run of the
	// experiment (all workers), and each stage's fraction of that total.
	// Fractions are wall-clock-independent-ish — a stage whose share grows
	// got slower relative to the others — which is what CI's stage-time
	// regression gate compares against the committed baseline.
	Stages map[string]stageSeconds `json:"stages,omitempty"`
	Note   string                  `json:"note,omitempty"`
}

// stageSeconds is one CAD stage's share of an experiment's pooled run.
type stageSeconds struct {
	Seconds  float64 `json:"seconds"`
	Fraction float64 `json:"fraction"`
}

// cadStages maps breakdown names to the flow's per-stage duration
// histograms (see internal/flow).
var cadStages = []struct{ name, hist string }{
	{"map", "flow.map_ns"},
	{"place", "flow.place_ns"},
	{"route", "flow.route_ns"},
	{"bitgen", "flow.bitgen_ns"},
}

// stageSums reads the running nanosecond totals of the per-stage duration
// histograms; the delta across a region is the stage time it spent.
func stageSums() map[string]int64 {
	m := make(map[string]int64, len(cadStages))
	for _, s := range cadStages {
		m[s.name] = obs.GetHistogram(s.hist).Sum()
	}
	return m
}

// stageBreakdown converts before/after histogram sums into the per-stage
// seconds and fractions of one pooled run (nil if no stage ran).
func stageBreakdown(before, after map[string]int64) map[string]stageSeconds {
	var total float64
	for _, s := range cadStages {
		total += float64(after[s.name] - before[s.name])
	}
	if total <= 0 {
		return nil
	}
	out := make(map[string]stageSeconds, len(cadStages))
	for _, s := range cadStages {
		ns := float64(after[s.name] - before[s.name])
		out[s.name] = stageSeconds{Seconds: ns / 1e9, Fraction: ns / total}
	}
	return out
}

// cacheRecord is the -json view of cache.Stats.
type cacheRecord struct {
	Enabled   bool                  `json:"enabled"`
	Dir       string                `json:"dir,omitempty"`
	Entries   int                   `json:"entries"`
	Bytes     int64                 `json:"bytes"`
	Evictions int64                 `json:"evictions"`
	Stages    map[string]cacheStage `json:"stages,omitempty"`
}

type cacheStage struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

func newCacheRecord(c *cache.Cache) *cacheRecord {
	st := c.Stats()
	rec := &cacheRecord{
		Enabled: true, Dir: c.Dir(),
		Entries: st.Entries, Bytes: st.Bytes, Evictions: st.Evictions,
	}
	if len(st.Stages) > 0 {
		rec.Stages = make(map[string]cacheStage, len(st.Stages))
		for name, s := range st.Stages {
			rec.Stages[name] = cacheStage{Hits: s.Hits, Misses: s.Misses, HitRate: s.HitRate()}
		}
	}
	return rec
}

func main() { os.Exit(run(os.Args[1:])) }

// selectExperiments parses -exp: ids from the experiment table, "all", or
// "none" (no table experiment, e.g. to run only the -incremental edit
// storm). An unknown id is an error that names the valid ones.
func selectExperiments(list string) (map[string]bool, error) {
	valid := map[string]bool{"all": true, "none": true}
	ids := make([]string, 0, len(all))
	for _, exp := range all {
		valid[exp.id] = true
		ids = append(ids, exp.id)
	}
	want := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		id := strings.TrimSpace(strings.ToLower(e))
		if !valid[id] {
			return nil, fmt.Errorf("jpgbench: unknown experiment %q in -exp; valid ids: %s, all, none (E10 runs with -incremental)",
				id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	return want, nil
}

// run is main behind an exit code, so deferred profile writers run before
// the process exits.
func run(args []string) int {
	fs := flag.NewFlagSet("jpgbench", flag.ExitOnError)
	var (
		expList  = fs.String("exp", "all", "comma-separated experiments (e1..e9), 'all' or 'none'")
		quick    = fs.Bool("quick", false, "shrink sweeps for a fast run")
		part     = fs.String("part", "XCV50", "device for CAD-heavy experiments")
		seed     = fs.Int64("seed", 1, "random seed")
		workers  = fs.Int("workers", 0, "worker pool width for independent CAD runs (0 = all cores, or $JPG_WORKERS)")
		starts   = fs.Int("starts", 0, "annealing starts per placement; the best placement wins (0/1 = single start)")
		jsonPath = fs.String("json", "", "write a serial-vs-parallel perf record to this file")
		tracePth = fs.String("trace", "", "write a Chrome trace (chrome://tracing / Perfetto) of the pooled runs to this file")
		metrics  = fs.Bool("metrics", false, "print the metrics registry snapshot and per-stage span summary after the run")
		useCache = fs.Bool("cache", cache.EnvEnabled(), "memoize CAD stage results (content-addressed; default $JPG_CACHE/$JPG_CACHE_DIR)")
		cacheDir = fs.String("cache-dir", os.Getenv(cache.EnvDir), "persist the cache on disk under this directory (implies -cache)")
		faultStr = fs.String("faults", os.Getenv(faults.Env), "inject deterministic download faults into every experiment board (e.g. \"nth=2,mode=error,seed=7\"; default $JPG_FAULTS)")
		retries  = fs.Int("retries", 0, "max download attempts per board download (0 = xhwif default; the reliability layer is on whenever -faults/-retries/-download-timeout is set)")
		dlTmout  = fs.Duration("download-timeout", 0, "deadline for one board download including retries")
		incr     = fs.Bool("incremental", false, "also run the E10 edit storm (delta-driven incremental flow)")
		verify   = fs.Bool("verify", false, "independently verify every emitted bitstream (internal/bitlint); results identical, runs fail on any error finding")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	fs.Parse(args) // ExitOnError: exits 2 on a bad flag, 0 on -h
	want, err := selectExperiments(*expList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if _, err := faults.Parse(*faultStr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("cpu profile written to %s\n", *cpuProf)
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC() // flush garbage so the heap profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
			fmt.Printf("heap profile written to %s\n", *memProf)
		}()
	}
	cfg := experiments.Config{
		Part: *part, Seed: *seed, Quick: *quick, Workers: *workers, Starts: *starts,
		Verify: *verify,
		Faults: *faultStr, Retries: *retries, DownloadTimeout: *dlTmout,
	}
	// The pooled runs' context carries the cache and the collector; the
	// serial -json reruns get context.Background(), so they stay out of the
	// trace and the cache. Results are byte-identical either way.
	ctx := context.Background()
	var bcache *cache.Cache
	if *useCache || *cacheDir != "" {
		bcache = cache.New(cache.Options{Dir: *cacheDir})
		ctx = cache.With(ctx, bcache)
	}
	var col *obs.Collector
	if *tracePth != "" || *metrics {
		col = obs.New()
		ctx = col.Attach(ctx)
	}

	record := perfRecord{
		Tool: "jpgbench", Part: *part, Seed: *seed, Quick: *quick,
		NumCPU: runtime.NumCPU(), RequestedWorkers: *workers, Workers: *workers,
		RequestedStarts: *starts,
	}
	if record.Workers == 0 {
		record.Workers = parallel.DefaultWorkers()
	}
	failed := false
	for _, exp := range all {
		if !want["all"] && !want[exp.id] {
			continue
		}
		// With -json, time a strictly serial run first; results are
		// byte-identical (only wall-clock changes), so only the pooled
		// run's table is printed. The serial rerun is uncached so it stays
		// a true baseline.
		var serial time.Duration
		if *jsonPath != "" {
			serialCfg := cfg
			serialCfg.Workers = 1
			t0 := time.Now()
			if _, err := exp.run(context.Background(), serialCfg); err != nil {
				fmt.Fprintf(os.Stderr, "%s (serial): %v\n", exp.id, err)
				failed = true
				continue
			}
			serial = time.Since(t0)
		}
		stagesBefore := stageSums()
		t0 := time.Now()
		tab, err := exp.run(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", exp.id, err)
			failed = true
			continue
		}
		elapsed := time.Since(t0)
		stagesAfter := stageSums()
		fmt.Print(tab.Render())
		fmt.Printf("(%s ran in %v)\n\n", strings.ToUpper(exp.id), elapsed.Round(time.Millisecond))
		for _, n := range tab.Notes {
			if strings.Contains(n, "VERDICT: FAIL") {
				failed = true
			}
		}
		if *jsonPath != "" {
			pe := perfExperiment{
				ID:              exp.id,
				SerialSeconds:   serial.Seconds(),
				ParallelSeconds: elapsed.Seconds(),
				Stages:          stageBreakdown(stagesBefore, stagesAfter),
			}
			switch {
			case record.Workers <= 1:
				pe.Note = "workers <= 1: the pooled run is a second serial run, speedup would be noise"
			case record.NumCPU <= 1:
				pe.Note = "single-CPU host: no parallel speedup is possible"
			default:
				s := serial.Seconds() / elapsed.Seconds()
				pe.Speedup = &s
			}
			// With the cache populated by the run above, time a warm rerun
			// of the same pooled configuration.
			if bcache != nil {
				t0 = time.Now()
				if _, err := exp.run(ctx, cfg); err != nil {
					fmt.Fprintf(os.Stderr, "%s (warm): %v\n", exp.id, err)
					failed = true
					continue
				}
				warm := time.Since(t0).Seconds()
				ratio := elapsed.Seconds() / warm
				pe.WarmSeconds = &warm
				pe.WarmSpeedup = &ratio
			}
			record.Experiments = append(record.Experiments, pe)
		}
	}
	if *incr {
		t0 := time.Now()
		tab, stats, err := experiments.EditStorm(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e10: %v\n", err)
			failed = true
		} else {
			fmt.Print(tab.Render())
			fmt.Printf("(E10 ran in %v)\n\n", time.Since(t0).Round(time.Millisecond))
			for _, n := range tab.Notes {
				if strings.Contains(n, "VERDICT: FAIL") {
					failed = true
				}
			}
			record.Incremental = stats
		}
	}
	if *faultStr != "" {
		fmt.Printf("fault injection %q: injected %d of %d download attempts; %d retries, %d rollbacks, %d aborts, %d verify failures\n",
			*faultStr,
			obs.GetCounter("faults.injected").Value(),
			obs.GetCounter("faults.download_attempts").Value(),
			obs.GetCounter("xhwif.retries").Value(),
			obs.GetCounter("xhwif.rollbacks").Value(),
			obs.GetCounter("xhwif.download_aborts").Value(),
			obs.GetCounter("xhwif.verify_failures").Value())
	}
	record.Version = perfVersion
	if bcache != nil {
		record.Cache = newCacheRecord(bcache)
	}
	record.Metrics = obs.Default.Snapshot()
	if *tracePth != "" {
		f, err := os.Create(*tracePth)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			return 1
		}
		err = col.WriteChromeTrace(f, "jpgbench")
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace written to %s (%d spans; open in chrome://tracing or ui.perfetto.dev)\n",
			*tracePth, len(col.Spans()))
	}
	if *metrics {
		fmt.Println("== per-stage span summary ==")
		fmt.Print(col.StageSummary())
		fmt.Println("== metrics snapshot ==")
		fmt.Print(record.Metrics.Render())
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(record, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perf record: %v\n", err)
			return 1
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perf record: %v\n", err)
			return 1
		}
		for _, e := range record.Experiments {
			line := fmt.Sprintf("perf %s: serial %.3fs, %d workers %.3fs",
				e.ID, e.SerialSeconds, record.Workers, e.ParallelSeconds)
			if e.Speedup != nil {
				line += fmt.Sprintf(" (%.2fx)", *e.Speedup)
			}
			if e.WarmSeconds != nil {
				line += fmt.Sprintf(", warm %.3fs (%.2fx vs cold)", *e.WarmSeconds, *e.WarmSpeedup)
			}
			fmt.Println(line)
		}
		fmt.Printf("perf record written to %s\n", *jsonPath)
	}
	if failed {
		return 1
	}
	return 0
}
