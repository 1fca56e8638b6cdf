package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/faults"
	"repro/internal/jpgd"
	"repro/internal/parallel"
)

// pinnedEnv is the environment every run measures under. The JPG_* and
// JPGD_* variables select workers, stage caches, fault injection and the
// serving pipeline; pinning them means a stray variable in the caller's
// environment cannot change what runs.
var pinnedEnv = map[string]string{
	parallel.EnvWorkers:     "1",
	cache.EnvMode:           "off",
	cache.EnvDir:            "",
	faults.Env:              "",
	jpgd.EnvMaxInflight:     "",
	jpgd.EnvQueue:           "",
	jpgd.EnvArtifactCacheMB: "",
	jpgd.EnvCoalesce:        "",
	jpgd.EnvRequestTimeout:  "",
}

// pinEnv clears every JPG_/JPGD_ variable, sets the pinned ones, and pins
// the Go runtime knobs (GOMAXPROCS to the CPUs this process may use, the
// default GC target, no memory limit). It returns the pinned values.
func pinEnv() (map[string]string, error) {
	for _, kv := range os.Environ() {
		name, _, _ := strings.Cut(kv, "=")
		if strings.HasPrefix(name, "JPG_") || strings.HasPrefix(name, "JPGD_") {
			if err := os.Unsetenv(name); err != nil {
				return nil, err
			}
		}
	}
	for name, v := range pinnedEnv {
		if err := os.Setenv(name, v); err != nil {
			return nil, err
		}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
	return pinnedEnv, nil
}

// hostInfo states where a run measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func host() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is the run record printed before the result line.
type record struct {
	Record   string            `json:"record"`
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Host     hostInfo          `json:"host"`
	Env      map[string]string `json:"env"`
	// CalibStartMS and CalibEndMS time the same fixed loop before and
	// after the workload: a host that slowed down shows here, not only in
	// the metrics.
	CalibStartMS float64        `json:"calib_start_ms"`
	CalibEndMS   float64        `json:"calib_end_ms"`
	Metrics      []metricRow    `json:"metrics"`
	Notes        map[string]any `json:"notes,omitempty"`
	Error        string         `json:"error,omitempty"`
}

func newRecord(cfg runConfig, env map[string]string) *record {
	return &record{
		Record:   "perfbench",
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Trace:    cfg.trace,
		Host:     host(),
		Env:      env,
	}
}

// calibReps is how many times the calibration loop runs; a reading is the
// median.
const calibReps = 31

// calibNode is the calibration loop's object.
type calibNode struct {
	key  int
	next *calibNode
	pad  [4]int
}

// calibSink keeps the calibration loop's result live.
var calibSink int

// calibrate times a fixed loop that links fresh objects into a map, the
// allocation- and memory-bound kind of work the workloads spend their time
// on, and returns the median repetition in ms. On a shared virtual machine
// the speed of such code drifts by tens of percent over minutes while a
// compute-only loop such as SHA-256 barely moves, so a loop like this one
// is the better gauge of whether the host, not the program, changed.
func calibrate() float64 {
	reps := make([]float64, calibReps)
	for r := range reps {
		// Each repetition starts from a collected heap, so it reuses the
		// pages the last one touched instead of faulting in fresh ones.
		runtime.GC()
		t0 := time.Now()
		m := make(map[int]*calibNode, 64)
		var head *calibNode
		for i := 0; i < 20000; i++ {
			head = &calibNode{key: i, next: head}
			m[i*7919] = head
		}
		calibSink += len(m)
		reps[r] = ms(time.Since(t0))
	}
	runtime.GC()
	return median(reps)
}

// median returns the median of xs, sorting xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB collects garbage and returns the live heap in MiB. The second
// collection empties the sync.Pool victim caches the first one filled.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
