package main

import (
	"fmt"
	"math"
	"sort"
)

// units names the unit of every metric the benchmark emits.
var units = map[string]string{
	// End-to-end (untraced run).
	"setup_s":        "s",
	"latency_ms.p50": "ms",
	"latency_ms.p95": "ms",
	"ops_per_s":      "1/s",
	"cpu_ms_per_op":  "ms",
	"live_heap_mb":   "MiB",

	// Per-layer (traced run): times are mean ms per op, counts per op.
	"partial_kb":           "KiB",
	"crit_path_ns":         "ns",
	"hit_ms.p50":           "ms",
	"hit_ms.p95":           "ms",
	"miss_ms.p50":          "ms",
	"miss_ms.p95":          "ms",
	"place.ms":             "ms",
	"place.moves":          "count",
	"place.accept_ratio":   "ratio",
	"route.ms":             "ms",
	"route.searches":       "count",
	"route.heap_pushes":    "count",
	"route.iterations":     "count",
	"route.retry_ratio":    "ratio",
	"route.pips":           "count",
	"designs.map_ms":       "ms",
	"bitgen.ms":            "ms",
	"xdl.emit_ms":          "ms",
	"core.partial_ms":      "ms",
	"core.frames_carried":  "count",
	"core.changed_ratio":   "ratio",
	"core.add_module_ms":   "ms",
	"core.new_project_ms":  "ms",
	"core.module_ms":       "ms",
	"flow.diff_ms":         "ms",
	"flow.splice_ms":       "ms",
	"flow.dirty_frames":    "count",
	"flow.rebuilds":        "count",
	"bitlint.verify_ms":    "ms",
	"xhwif.download_ms":    "ms",
	"xhwif.model_ms":       "ms",
	"jpgd.decode_ms":       "ms",
	"jpgd.encode_ms":       "ms",
	"jpgd.transport_ms":    "ms",
	"jpgd.hit_ms":          "ms",
	"jpgd.hit_ratio":       "ratio",
	"jpgd.coalesced_ratio": "ratio",
	"jpgd.exec_per_body":   "ratio",
	"jpgd.admit_wait_ms":   "ms",
	"jpgd.shed":            "count",
	"gen.late_ms.p95":      "ms",
	"unattributed_ms":      "ms",
	"trace.op_ms":          "ms",
	"trace.overhead_ratio": "ratio",
}

// endToEnd lists the end-to-end metrics. Every workload emits every one of
// them, so each is one that all three loops measure for themselves. What
// only some workloads measure (partial size, critical path, latency by
// X-Cache class) is reported by the traced run. latency_ms.p95 and
// ops_per_s are in the run record but not here: on a shared two-CPU
// virtual machine they follow the host's CPU steal, and their spread
// across seeds came within a few hundredths of 0.25, the largest bound a
// metric may have; cpu_ms_per_op, the cost that sets the throughput a host
// can reach, spread less.
var endToEnd = []string{"setup_s", "latency_ms.p50", "cpu_ms_per_op", "live_heap_mb"}

// perLayer lists the traced run's metrics. Every workload emits all of them:
// a layer its op never calls reads 0, which is the "no change" a gain in
// that layer must show there.
var perLayer = []string{
	"place.ms", "place.moves", "place.accept_ratio",
	"route.ms", "route.searches", "route.heap_pushes", "route.iterations", "route.retry_ratio", "route.pips",
	"crit_path_ns",
	"designs.map_ms", "bitgen.ms", "xdl.emit_ms",
	"core.partial_ms", "core.frames_carried", "core.changed_ratio", "partial_kb",
	"core.add_module_ms", "core.new_project_ms", "core.module_ms",
	"flow.diff_ms", "flow.splice_ms", "flow.dirty_frames", "flow.rebuilds",
	"bitlint.verify_ms",
	"xhwif.download_ms", "xhwif.model_ms",
	"jpgd.decode_ms", "jpgd.encode_ms", "jpgd.transport_ms", "jpgd.hit_ms",
	"hit_ms.p50", "hit_ms.p95", "miss_ms.p50", "miss_ms.p95",
	"jpgd.hit_ratio", "jpgd.coalesced_ratio", "jpgd.exec_per_body", "jpgd.admit_wait_ms", "jpgd.shed",
	"gen.late_ms.p95",
	"unattributed_ms", "trace.op_ms", "trace.overhead_ratio",
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted samples and how
// many samples lie beyond it.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

// minSamples is the smallest sample count that leaves minBeyond samples
// beyond the q-quantile.
func minSamples(q float64) int {
	n := minBeyond
	for {
		if _, beyond := quantile(make([]float64, n), q); beyond >= minBeyond {
			return n
		}
		n++
	}
}

// report is what one workload run measured.
type report struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
	// notes carries run details that are not metrics, such as request
	// classes and generator lateness.
	notes map[string]any
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}, notes: map[string]any{}}
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// setTimings reports name.p50 and name.p95 of latency samples in ms. Failed
// ops are +Inf, slower than any limit. It fails when the p95 has fewer than
// minBeyond samples beyond it: the run was too short for that percentile.
func (r *report) setTimings(name string, ms []float64) error {
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	p50, _ := quantile(sorted, 0.50)
	p95, beyond := quantile(sorted, 0.95)
	if beyond < minBeyond {
		return fmt.Errorf("%s: %d samples leave %d beyond p95, need %d (at least %d samples)",
			name, len(sorted), beyond, minBeyond, minSamples(0.95))
	}
	r.set(name+".p50", p50, len(sorted))
	r.set(name+".p95", p95, len(sorted))
	return nil
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emitted returns the metric names a run of cfg prints.
func emitted(cfg runConfig) []string {
	if cfg.trace {
		return perLayer
	}
	return endToEnd
}

// value returns a measured value as JSON can carry it: a percentile that
// landed on a failed op (+Inf) reads as the largest float, and a value
// that could not be computed is missing.
func (r *report) value(name string) (float64, bool) {
	v, ok := r.values[name]
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64, ok
	case math.IsNaN(v) || math.IsInf(v, -1):
		return 0, false
	}
	return v, ok
}

// result renders the report as the result line. An untraced run must have
// measured every end-to-end metric of its workload, each finite and
// non-zero; a traced run reports 0 for layers its op never calls.
func (r *report) result(cfg runConfig) (result, error) {
	res := result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	var err error
	for _, name := range emitted(cfg) {
		v, ok := r.value(name)
		if !cfg.trace && (!ok || v == 0) && err == nil {
			err = fmt.Errorf("end-to-end metric %s was not measured", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	if res.Attempted < 1 && err == nil {
		err = fmt.Errorf("no op was attempted")
	}
	return res, err
}

// metricRow is one metric of the run record, with its sample count.
type metricRow struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// table lists every metric the run measured by name, with its sample
// count: the result's metrics and the ones the result leaves out.
func (r *report) table() []metricRow {
	var rows []metricRow
	for name := range r.values {
		if v, ok := r.value(name); ok && units[name] != "" {
			rows = append(rows, metricRow{Name: name, Value: v, Unit: units[name], Samples: r.samples[name]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}
