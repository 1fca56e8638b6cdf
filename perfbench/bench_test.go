package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
)

func TestQuantileRule(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := quantile(xs, 0.50); v != 100 || beyond != 100 {
		t.Errorf("p50 of 1..200 = %v with %d beyond, want 100 with 100", v, beyond)
	}
	if v, beyond := quantile(xs, 0.95); v != 190 || beyond != 10 {
		t.Errorf("p95 of 1..200 = %v with %d beyond, want 190 with 10", v, beyond)
	}
	if n := minSamples(0.95); n != 200 {
		t.Errorf("minSamples(0.95) = %d, want 200", n)
	}
	if n := minSamples(0.50); n != 20 {
		t.Errorf("minSamples(0.50) = %d, want 20", n)
	}

	r := newReport()
	if err := r.setTimings("latency_ms", xs[:199]); err == nil {
		t.Error("199 samples passed the p95 rule; 9 lie beyond it")
	}
	if err := r.setTimings("latency_ms", xs); err != nil {
		t.Fatal(err)
	}
	if r.samples["latency_ms.p95"] != 200 {
		t.Errorf("sample count %d, want 200", r.samples["latency_ms.p95"])
	}

	// A failed op is slower than any limit: enough failures put p95 on +Inf.
	failed := slices.Clone(xs)
	for i := 0; i < 11; i++ {
		failed[i] = math.Inf(1)
	}
	if err := r.setTimings("latency_ms", failed); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(r.values["latency_ms.p95"], 1) {
		t.Errorf("p95 with 11 failed of 200 = %v, want +Inf", r.values["latency_ms.p95"])
	}
	// The run record carries it as the largest float, which JSON can hold.
	r.set("core.frames_changed", 3, 1) // a helper count with no unit stays out
	rows := r.table()
	if _, err := json.Marshal(rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1].Name != "latency_ms.p95" || rows[1].Value != math.MaxFloat64 {
		t.Errorf("record rows %+v, want latency_ms.p50 and a p95 of MaxFloat64", rows)
	}
}

func TestScheduleRepeatsForSeed(t *testing.T) {
	const steps = 3000
	draw := func(seed int64) ([][2]int, *schedule) {
		s := newSchedule(seed, 10)
		var out [][2]int
		for i := 0; i < steps; i++ {
			body, copies := s.next()
			out = append(out, [2]int{body, copies})
		}
		return out, s
	}
	a, sa := draw(7)
	b, sb := draw(7)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(sa.bodies, sb.bodies) {
		t.Fatal("one seed gave two request sequences")
	}
	if c, _ := draw(8); reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 gave the same requests")
	}
	hot, twins := 0, 0
	seen := map[int]bool{}
	for i, st := range a {
		body, copies := st[0], st[1]
		if body < sa.hot {
			hot++
			if copies != 1 {
				t.Fatalf("step %d sends hot body %d %d times", i, body, copies)
			}
			continue
		}
		if seen[body] {
			t.Fatalf("step %d sends new body %d again", i, body)
		}
		seen[body] = true
		if copies == 2 {
			twins++
		}
	}
	if share := float64(hot) / steps; share < 0.30 || share > 0.37 {
		t.Errorf("hot share %.3f, want about a third", share)
	}
	if len(seen) != sa.fresh || len(sa.bodies) != sa.hot+sa.fresh {
		t.Errorf("%d new bodies sent, %d drawn, %d bodies with %d hot", len(seen), sa.fresh, len(sa.bodies), sa.hot)
	}
	if want := (sa.fresh + serveTwinEvery - 1) / serveTwinEvery; twins != want {
		t.Errorf("%d new bodies sent twice, want %d (every tenth)", twins, want)
	}
}

func TestEditSequenceRepeatsForSeed(t *testing.T) {
	a, b, c := newEditSeq(5), newEditSeq(5), newEditSeq(6)
	same := true
	for i := 0; i < 50; i++ {
		ea, eb, ec := a.next(), b.next(), c.next()
		if !reflect.DeepEqual(ea, eb) {
			t.Fatalf("op %d: one seed gave edits %v and %v", i, ea, eb)
		}
		if len(ea) < 1 || len(ea) > 3 {
			t.Fatalf("op %d: %d edits, want 1-3", i, len(ea))
		}
		same = same && reflect.DeepEqual(ea, ec)
	}
	if same {
		t.Error("seeds 5 and 6 gave the same edits")
	}
	if placeSeed(3, 17) != placeSeed(3, 17) || placeSeed(3, 17) == placeSeed(4, 17) {
		t.Error("placement seeds do not follow the workload seed")
	}
}

// noCells are the metrics that measure nothing of their own on some
// workload: a cache class on a loop with no cache, a CAD result on a
// workload that runs no CAD. The result line must hold the same end-to-end
// metrics on every workload, so none of them may be one.
var noCells = []string{"hit_ms.p50", "hit_ms.p95", "miss_ms.p50", "miss_ms.p95", "partial_kb", "crit_path_ns"}

func TestEmissionRule(t *testing.T) {
	for _, name := range noCells {
		if slices.Contains(endToEnd, name) {
			t.Errorf("%s is an end-to-end metric, but some workload cannot measure it", name)
		}
	}
	for w := range workloads {
		// A report holding every metric emits exactly the end-to-end ones.
		r := newReport()
		r.attempted = 1
		for name := range units {
			r.set(name, 1, 1)
		}
		res, err := r.result(runConfig{workload: w})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s emits %d metrics, want %d", w, len(res.Metrics), len(endToEnd))
		}
		for _, name := range endToEnd {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("%s does not emit %s", w, name)
			}
		}
		// A missing or zero end-to-end metric fails the run.
		delete(r.values, endToEnd[1])
		if _, err := r.result(runConfig{workload: w}); err == nil {
			t.Errorf("%s: missing %s passed", w, endToEnd[1])
		}
		// The traced run emits every per-layer metric, 0 where not measured.
		traced := newReport()
		traced.attempted = 1
		res, err = traced.result(runConfig{workload: w, trace: true})
		if err != nil || len(res.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics (%v), want %d", w, len(res.Metrics), err, len(perLayer))
		}
	}
}

// TestBenchmarkFile checks that BENCHMARK.json declares exactly the metrics
// the runs emit, with the same units.
func TestBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	type metricDecl struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the benchmark runs %d workloads", names, len(workloads))
	}
	for what, pair := range map[string]struct {
		declared []metricDecl
		emitted  []string
	}{"end_to_end": {spec.EndToEnd, endToEnd}, "per_layer": {spec.PerLayer, perLayer}} {
		if len(pair.declared) != len(pair.emitted) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the runs emit %d", len(pair.declared), what, len(pair.emitted))
		}
		for i, m := range pair.declared {
			if i < len(pair.emitted) && (m.Name != pair.emitted[i] || m.Unit != units[m.Name]) {
				t.Errorf("%s[%d] = %s %s, want %s %s", what, i, m.Name, m.Unit, pair.emitted[i], units[pair.emitted[i]])
			}
		}
	}
}
