// Command perfbench is the repository benchmark: it drives the JPG packages
// at the commit under test through three workloads and prints their
// end-to-end metrics (untraced run) or their per-layer breakdown (traced
// run) as one JSON line.
//
//	go run . --workload fig4-farm --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//   - fig4-farm: the paper's Figure 4 scenario on XCV50. One op is one
//     Phase-2 variant turnaround (build variant, add module, strict partial,
//     bitlint verify, board download). Route dominates it.
//   - edit-storm: the E10 loop. One op absorbs a seeded 1-3 INIT edit through
//     the incremental flow, verifies the partial and downloads it. No map,
//     place or route runs, so core partial generation carries the op.
//   - serve-mixed: a seeded closed loop of requests, two thirds of them
//     new bodies, against an in-process jpgd over loopback HTTP. The only
//     workload that exercises request decode, admission, coalescing and
//     the artifact cache.
//
// The last line of standard output is the result object; the line before it
// is the run record (host, pinned environment, calibration loop, sample
// counts). Any wrong output fails the run: the result says correct=false
// and the exit code is 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"fig4-farm":   runFig4,
	"edit-storm":  runEdit,
	"serve-mixed": runServe,
}

func main() {
	var (
		workload = flag.String("workload", "", "fig4-farm, edit-storm or serve-mixed")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measured time of one run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("bad --seconds %v or --trace %d", *seconds, *trace)
	}
	env, err := pinEnv()
	if err != nil {
		fatalf("%v", err)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}

	rec := newRecord(cfg, env)
	rec.CalibStartMS = calibrate()
	rep, err := run(cfg)
	rec.CalibEndMS = calibrate()
	if err != nil && rep == nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	res, emitErr := rep.result(cfg)
	if err == nil {
		err = emitErr
	}
	if err != nil {
		res.Correct = false
		rec.Error = err.Error()
	}
	rec.Metrics = rep.table()
	rec.Notes = rep.notes
	printJSON(rec)
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encode: %v", err)
	}
	fmt.Println(string(b))
}

// fatalf reports a run that could not produce a result at all.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
