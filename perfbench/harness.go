package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// wrongOutput marks an error in what the program produced, as opposed to an
// op that failed: it fails the whole run.
type wrongOutput struct{ error }

func wrongf(format string, args ...any) error {
	return wrongOutput{fmt.Errorf(format, args...)}
}

// isWrong reports whether err is a wrong-output error.
func isWrong(err error) bool {
	var w wrongOutput
	return errors.As(err, &w)
}

// mix derives the i-th input seed of a workload seed (splitmix64), so any
// op's inputs can be regenerated without replaying the ops before it.
func mix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 5

// timeSetup runs build setupReps times, keeps the last state and reports
// the median duration in seconds. discard, when set, releases each state
// that a later repetition replaced, outside the timed part.
func timeSetup[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var state T
	secs := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return state, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i > 0 && discard != nil {
			discard(state)
		}
		state = s
	}
	return state, median(secs), nil
}

// opTime is the measured part of one op: wall-clock and process CPU time.
type opTime struct{ wall, cpu time.Duration }

// stopwatch times an op's measured part. Output checks and input
// preparation around it stay outside.
type stopwatch struct {
	t0 time.Time
	c0 time.Duration
}

func startWatch() stopwatch { return stopwatch{c0: cpuTime(), t0: time.Now()} }

func (s stopwatch) stop() opTime { return opTime{wall: time.Since(s.t0), cpu: cpuTime() - s.c0} }

// loopResult is a closed loop's measurement.
type loopResult struct {
	lat    []float64 // ms per op; +Inf for a failed op
	failed int
	// busy and cpu sum the ops' measured parts.
	busy, cpu time.Duration
}

// closedLoop runs op(i) one at a time for at least d and at least minN ops
// (giving up at 4d), stopping only after a multiple of whole ops. op times
// its own measured part and does its output checks outside it; a wrong
// output stops the loop, any other error counts the op as failed.
func closedLoop(d time.Duration, minN, whole int, op func(i int) (opTime, error)) (loopResult, error) {
	var r loopResult
	t0 := time.Now()
	for i := 0; ; i++ {
		el := time.Since(t0)
		if i%whole == 0 && ((el >= d && i >= minN) || el >= 4*d) {
			break
		}
		ot, err := op(i)
		switch {
		case isWrong(err):
			return r, err
		case err != nil:
			r.failed++
			r.lat = append(r.lat, math.Inf(1))
		default:
			r.lat = append(r.lat, ms(ot.wall))
		}
		r.busy += ot.wall
		r.cpu += ot.cpu
	}
	return r, nil
}

// report renders a closed loop's end-to-end metrics. Like latency,
// throughput and CPU cover only the ops' measured parts, not the checks
// between them; throughput counts only the ops that succeeded.
func (l loopResult) report(r *report) error {
	n := len(l.lat)
	r.attempted, r.failed = n, l.failed
	r.set("ops_per_s", float64(n-l.failed)/l.busy.Seconds(), n)
	r.set("cpu_ms_per_op", ms(l.cpu)/float64(n), n)
	return r.setTimings("latency_ms", l.lat)
}

// layers accumulates a traced run: per-layer busy time and counts summed
// over ops, plus whole-op time.
type layers struct {
	ops   int
	opDur time.Duration
	busy  map[string]time.Duration
	count map[string]float64
}

func newLayers() *layers {
	return &layers{busy: map[string]time.Duration{}, count: map[string]float64{}}
}

// since charges the time since t0 to layer name. A nil *layers times
// nothing, for the untraced replay of the same calls.
func (l *layers) since(name string, t0 time.Time) {
	if l != nil {
		l.busy[name] += time.Since(t0)
	}
}

// add adds n to count name.
func (l *layers) add(name string, n float64) { l.count[name] += n }

// report writes per-op means: layer times in ms, counts per op, and the op
// time no layer call covered. overhead is traced op time over untraced op
// time for the same ops.
func (l *layers) report(r *report, untracedOp time.Duration) {
	n := float64(l.ops)
	var covered time.Duration
	for name, d := range l.busy {
		covered += d
		r.set(name, ms(d)/n, l.ops)
	}
	for name, c := range l.count {
		r.set(name, c/n, l.ops)
	}
	r.set("trace.op_ms", ms(l.opDur)/n, l.ops)
	r.set("unattributed_ms", ms(l.opDur-covered)/n, l.ops)
	if untracedOp > 0 {
		r.set("trace.overhead_ratio", float64(l.opDur)/float64(untracedOp), l.ops)
	}
}

// ratio sets name to num/den, or 0 when den is 0.
func (r *report) ratio(name string, num, den float64, n int) {
	if den == 0 {
		r.set(name, 0, n)
		return
	}
	r.set(name, num/den, n)
}

// counters reads obs registry counters; deltas around calls give per-layer
// counts without adding anything inside the program.
type counters map[string]int64

func readCounters(names ...string) counters {
	c := make(counters, len(names))
	for _, n := range names {
		c[n] = obs.GetCounter(n).Value()
	}
	return c
}

// delta returns the counters' growth since c was read.
func (c counters) delta() counters {
	d := make(counters, len(c))
	for n, v := range c {
		d[n] = obs.GetCounter(n).Value() - v
	}
	return d
}

// repeats holds the values that must repeat exactly for one workload seed:
// across runs, and between a traced run and its untraced phase.
type repeats map[string]float64

// check compares got against want, naming every drift.
func (want repeats) check(got repeats, what string) error {
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if got[n] != want[n] {
			return wrongf("%s: %s drifted: %v, earlier %v", what, n, got[n], want[n])
		}
	}
	if len(got) != len(want) {
		return wrongf("%s: %d exact-repeat values, earlier %d", what, len(got), len(want))
	}
	return nil
}

// stateDir holds the exact-repeat records, relative to the checkout root the
// benchmark runs in.
const stateDir = ".bench_build/state"

// checkRecorded compares rep against the record an earlier run of the same
// binary left for this workload, seed and run length, and leaves one if
// there is none. The run length is part of the key because serve-mixed's
// schedule, and so the work it repeats, grows with --seconds.
func checkRecorded(cfg runConfig, rep repeats) error {
	exe, err := binaryHash()
	if err != nil {
		return err
	}
	path := filepath.Join(stateDir, exe, fmt.Sprintf("%s-seed%d-%gs.json", cfg.workload, cfg.seed, cfg.seconds))
	if b, err := os.ReadFile(path); err == nil {
		var earlier repeats
		if err := json.Unmarshal(b, &earlier); err != nil {
			return fmt.Errorf("exact-repeat record %s: %w", path, err)
		}
		return earlier.check(rep, fmt.Sprintf("run vs earlier run of seed %d for %gs", cfg.seed, cfg.seconds))
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// binaryHash identifies the running program, so records of an older build
// are never compared against a newer one.
func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
