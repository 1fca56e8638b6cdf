package experiments

import (
	"context"
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// The parallel execution layer's contract is that worker count changes only
// wall-clock, never results: every CAD run carries its own seed, and tables
// are collected by index, not completion order. These tests pin that down by
// running experiments serially (Workers=1) and wide (Workers>=4) and
// comparing the tables byte for byte — after masking the cells and notes
// that report *measured wall-clock*, which differ between any two runs,
// serial or not. Everything the paper's claims rest on (run counts, LE
// counts, bitstream bytes, byte ratios, verdicts on those) must be
// identical.

var speedupRE = regexp.MustCompile(`^\d+(\.\d+)?x$`)

func isTimeDerived(cell string) bool {
	if _, err := time.ParseDuration(cell); err == nil {
		return true
	}
	return speedupRE.MatchString(cell)
}

var durationTokenRE = regexp.MustCompile(`\b\d+(\.\d+)?(ns|µs|us|ms|s|m|h)\b`)

func timeSensitiveNote(note string) bool {
	lower := strings.ToLower(note)
	return strings.Contains(lower, "time") ||
		strings.Contains(lower, "faster") ||
		strings.Contains(lower, "speedup") ||
		durationTokenRE.MatchString(note)
}

// maskTimings renders a table with wall-clock-valued cells replaced by a
// placeholder and time-derived notes dropped.
func maskTimings(tab *Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s\n", tab.ID, tab.Title, tab.Claim)
	fmt.Fprintf(&b, "%s\n", strings.Join(tab.Columns, "|"))
	for _, row := range tab.Rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			if isTimeDerived(cell) {
				b.WriteString("<time>")
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range tab.Notes {
		if !timeSensitiveNote(n) {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
	}
	return b.String()
}

func wideWorkers() int {
	if n := runtime.NumCPU(); n > 4 {
		return n
	}
	return 4
}

// gatedCounters are the work counters CI's counted-work gate compares
// against bench/baseline.json. The gate rests on each being a function of
// the configuration alone, whatever the worker count or the scheduler did.
var gatedCounters = []string{
	"place.moves_proposed", "place.bbox_recomputes", "route.heap_pushes", "route.searches",
	"bitstream.bytes_emitted", "core.frames_carried", "flow.incremental_rebuilds",
}

// countWork runs an experiment and returns its table and how far each gated
// counter moved during the run.
func countWork(run func(context.Context, Config) (*Table, error), cfg Config) (*Table, map[string]int64, error) {
	before := make(map[string]int64, len(gatedCounters))
	for _, name := range gatedCounters {
		before[name] = obs.GetCounter(name).Value()
	}
	tab, err := run(context.Background(), cfg)
	work := make(map[string]int64, len(gatedCounters))
	for _, name := range gatedCounters {
		work[name] = obs.GetCounter(name).Value() - before[name]
	}
	return tab, work, err
}

// compareAcrossWorkers runs an experiment with Workers=1 and wide, requires
// the same masked table, and returns each run's counted work.
func compareAcrossWorkers(t *testing.T, name string, run func(context.Context, Config) (*Table, error)) (serialWork, wideWork map[string]int64) {
	t.Helper()
	serialCfg := Config{Quick: true, Seed: 3, Workers: 1}
	wideCfg := Config{Quick: true, Seed: 3, Workers: wideWorkers()}
	serial, serialWork, err := countWork(run, serialCfg)
	if err != nil {
		t.Fatalf("%s workers=1: %v", name, err)
	}
	wide, wideWork, err := countWork(run, wideCfg)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", name, wideCfg.Workers, err)
	}
	a, b := maskTimings(serial), maskTimings(wide)
	if a != b {
		t.Fatalf("%s table differs between Workers=1 and Workers=%d:\n--- serial ---\n%s\n--- wide ---\n%s",
			name, wideCfg.Workers, a, b)
	}
	return serialWork, wideWork
}

// requireSameWork fails unless two runs counted the same work, and that work
// includes placement and routing (a renamed counter would read 0 in both).
func requireSameWork(t *testing.T, name string, a, b map[string]int64) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s counted work differs between runs:\n%v\n%v", name, a, b)
	}
	if a["place.moves_proposed"] == 0 || a["route.heap_pushes"] == 0 {
		t.Fatalf("%s counted no placement or routing work: %v", name, a)
	}
}

func TestE1DeterministicAcrossWorkers(t *testing.T) {
	serial, wide := compareAcrossWorkers(t, "E1", E1)
	requireSameWork(t, "E1", serial, wide)
}

// TestE1DeterministicWithTracing pins the observability layer's
// non-interference contract: attaching a collector to the run context (as
// jpgbench -trace does) must not change any result — only record it.
func TestE1DeterministicWithTracing(t *testing.T) {
	plain, err := E1(context.Background(), Config{Quick: true, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatalf("E1 untraced: %v", err)
	}
	col := obs.New()
	traced, err := E1(col.Attach(context.Background()), Config{Quick: true, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatalf("E1 traced: %v", err)
	}
	a, b := maskTimings(plain), maskTimings(traced)
	if a != b {
		t.Fatalf("E1 table differs with tracing on:\n--- off ---\n%s\n--- on ---\n%s", a, b)
	}
	if len(col.Spans()) == 0 {
		t.Fatal("traced run recorded no spans")
	}
}

func TestE4DeterministicAcrossWorkers(t *testing.T) {
	serial, wide := compareAcrossWorkers(t, "E4", E4)
	requireSameWork(t, "E4", serial, wide)
}

// TestE10CountedWorkRepeats runs the quick edit storm twice: its counted
// work must not move between runs, every gated counter apart from the
// rebuild count must register work, and no INIT-only edit may rebuild.
func TestE10CountedWorkRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("E10 runs CAD builds")
	}
	cfg := Config{Quick: true, Seed: 3}
	var work [2]map[string]int64
	for i := range work {
		var err error
		if _, work[i], err = countWork(E10, cfg); err != nil {
			t.Fatalf("E10 run %d: %v", i+1, err)
		}
	}
	requireSameWork(t, "E10", work[0], work[1])
	for name, n := range work[0] {
		if name == "flow.incremental_rebuilds" {
			if n != 0 {
				t.Errorf("E10 rebuilt %d times", n)
			}
		} else if n == 0 {
			t.Errorf("E10 counted no %s", name)
		}
	}
}

func TestMaskTimings(t *testing.T) {
	tab := &Table{
		ID: "EX", Title: "t", Claim: "c",
		Columns: []string{"a", "time", "speedup"},
	}
	tab.AddRow("x", "1.5ms", "3.1x")
	tab.AddRow("y", "2m3s", "10x")
	tab.Note("deterministic byte ratio = 0.33x")
	tab.Note("total CAD time ratio = 2.1x")
	tab.Note("ran in 35ms")
	tab.Note("VERDICT: PASS (minimum module-vs-full P&R speedup 4.1x > 1.5x)")
	tab.Note("VERDICT: PASS (every partial is a third of its full bitstream)")
	got := maskTimings(tab)
	if strings.Contains(got, "1.5ms") || strings.Contains(got, "3.1x") || strings.Contains(got, "2m3s") {
		t.Fatalf("time cells not masked:\n%s", got)
	}
	if !strings.Contains(got, "byte ratio = 0.33x") {
		t.Fatalf("deterministic note dropped:\n%s", got)
	}
	if strings.Contains(got, "CAD time ratio") || strings.Contains(got, "35ms") ||
		strings.Contains(got, "P&R speedup") {
		t.Fatalf("time-sensitive notes kept:\n%s", got)
	}
	if !strings.Contains(got, "VERDICT: PASS (every partial") {
		t.Fatalf("verdict on bytes dropped:\n%s", got)
	}
	if !strings.Contains(got, "x|<time>|<time>") {
		t.Fatalf("row masking wrong:\n%s", got)
	}
}
