package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock steps a fixed amount per reading, making span timings (and
// therefore exports) fully deterministic.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{t: time.Unix(0, 0), step: step}
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(f.step)
	return f.t
}

func TestSpanHierarchyAndLanes(t *testing.T) {
	c := New()
	ctx := c.Attach(context.Background())

	ctx, root := Start(ctx, "root")
	lctx := Lane(ctx, "worker 0")
	_, child := Start(lctx, "child")
	child.End()
	root.End()

	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Completion order: child first.
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Fatalf("unexpected span order: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Errorf("child parent = %d, want root id %d", spans[0].Parent, spans[1].ID)
	}
	if spans[0].Lane == spans[1].Lane {
		t.Errorf("child should be on its own lane (child %d, root %d)", spans[0].Lane, spans[1].Lane)
	}
	lanes := c.LaneNames()
	if lanes[0] != "main" || lanes[spans[0].Lane] != "worker 0" {
		t.Errorf("lane names = %v", lanes)
	}
}

func TestNilSpanIsInert(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "nothing")
	if sp != nil {
		t.Fatal("Start without a collector must return a nil span")
	}
	if ctx2 != ctx {
		t.Fatal("Start without a collector must return the context unchanged")
	}
	// All methods are no-ops on nil.
	sp.SetInt("k", 1)
	sp.SetStr("k", "v")
	sp.End()
	sp.End()
	if Active(ctx) {
		t.Fatal("Active must be false without a collector")
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	c := New()
	ctx := c.Attach(context.Background())
	_, sp := Start(ctx, "once")
	sp.End()
	sp.End()
	if n := len(c.Spans()); n != 1 {
		t.Fatalf("double End recorded %d spans, want 1", n)
	}
}

// TestConcurrentSpansAndMetrics hammers one collector and one registry from
// many goroutines; run with -race this is the layer's thread-safety proof.
func TestConcurrentSpansAndMetrics(t *testing.T) {
	c := New()
	root := c.Attach(context.Background())
	reg := NewRegistry()

	const goroutines = 16
	const perG = 50
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			ctx := Lane(root, "lane")
			for i := 0; i < perG; i++ {
				sctx, sp := Start(ctx, "work")
				sp.SetInt("i", int64(i))
				_, inner := Start(sctx, "inner")
				inner.End()
				sp.End()
				reg.GetCounter("c").Inc()
				reg.GetGauge("g").Set(int64(g))
				reg.GetHistogram("h").Observe(int64(i))
			}
		}()
	}
	wg.Wait()

	if n := len(c.Spans()); n != goroutines*perG*2 {
		t.Fatalf("got %d spans, want %d", n, goroutines*perG*2)
	}
	snap := reg.Snapshot()
	if snap.Counters["c"] != goroutines*perG {
		t.Errorf("counter = %d, want %d", snap.Counters["c"], goroutines*perG)
	}
	h := snap.Histograms["h"]
	if h.Count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", h.Count, goroutines*perG)
	}
	if h.Min != 0 || h.Max != perG-1 {
		t.Errorf("histogram min/max = %d/%d, want 0/%d", h.Min, h.Max, perG-1)
	}
	var bucketTotal int64
	for _, b := range h.Buckets {
		bucketTotal += b.N
	}
	if bucketTotal != h.Count {
		t.Errorf("bucket total %d != count %d", bucketTotal, h.Count)
	}
}

type captureSink struct {
	mu   sync.Mutex
	recs []SpanRecord
}

func (cs *captureSink) Record(rec SpanRecord) {
	cs.mu.Lock()
	cs.recs = append(cs.recs, rec)
	cs.mu.Unlock()
}

func TestPluggableSink(t *testing.T) {
	cs := &captureSink{}
	c := New(WithSink(cs))
	ctx := c.Attach(context.Background())
	_, sp := Start(ctx, "streamed")
	sp.End()
	if len(cs.recs) != 1 || cs.recs[0].Name != "streamed" {
		t.Fatalf("sink saw %v", cs.recs)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	reg := NewRegistry()
	// Transplant via observation on a registered histogram instead.
	rh := reg.GetHistogram("x")
	for _, v := range []int64{0, 1, 2, 3, 4, 1000} {
		rh.Observe(v)
	}
	snap := reg.Snapshot().Histograms["x"]
	if snap.Count != 6 || snap.Min != 0 || snap.Max != 1000 || snap.Sum != 1010 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// v=0 -> le 0; v=1 -> le 1; v=2,3 -> le 3; v=4 -> le 7; v=1000 -> le 1023.
	want := []Bucket{{0, 1}, {1, 1}, {3, 2}, {7, 1}, {1023, 1}}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", snap.Buckets, want)
	}
	for i, b := range want {
		if snap.Buckets[i] != b {
			t.Errorf("bucket[%d] = %+v, want %+v", i, snap.Buckets[i], b)
		}
	}
}

// TestChromeTraceGolden pins the Chrome trace-event export byte for byte
// with a deterministic clock: metadata events name the process and lanes,
// span events are "X" completes with microsecond timestamps.
func TestChromeTraceGolden(t *testing.T) {
	clock := newFakeClock(time.Millisecond)
	c := New(WithNow(clock.now)) // epoch = 1ms
	ctx := c.Attach(context.Background())

	rctx, root := Start(ctx, "route") // start 2ms
	root.SetInt("nets", 3)
	wctx := Lane(rctx, "worker 0")
	_, task := Start(wctx, "task") // start 3ms
	task.End()                     // end 4ms
	root.End()                     // end 5ms

	got, err := c.ChromeTrace("jpg")
	if err != nil {
		t.Fatal(err)
	}
	const want = `[
 {
  "name": "process_name",
  "ph": "M",
  "pid": 1,
  "tid": 0,
  "args": {
   "name": "jpg"
  }
 },
 {
  "name": "thread_name",
  "ph": "M",
  "pid": 1,
  "tid": 0,
  "args": {
   "name": "main"
  }
 },
 {
  "name": "thread_name",
  "ph": "M",
  "pid": 1,
  "tid": 1,
  "args": {
   "name": "worker 0"
  }
 },
 {
  "name": "route",
  "ph": "X",
  "pid": 1,
  "tid": 0,
  "ts": 1000,
  "dur": 3000,
  "args": {
   "nets": 3
  }
 },
 {
  "name": "task",
  "ph": "X",
  "pid": 1,
  "tid": 1,
  "ts": 2000,
  "dur": 1000
 }
]`
	if string(got) != want {
		t.Errorf("chrome trace mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The export must also be valid JSON.
	var anything []map[string]any
	if err := json.Unmarshal(got, &anything); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
}

func TestExportAndRender(t *testing.T) {
	clock := newFakeClock(time.Millisecond)
	c := New(WithNow(clock.now))
	ctx := c.Attach(context.Background())
	_, sp := Start(ctx, "stage")
	sp.End()

	reg := NewRegistry()
	reg.GetCounter("a.count").Add(2)
	reg.GetGauge("b.depth").Set(-3)
	reg.GetHistogram("c.ns").Observe(10)

	text := reg.Snapshot().Render()
	for _, want := range []string{"a.count", "b.depth", "c.ns", "count 1 sum 10"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
	if sum := c.StageSummary(); !strings.Contains(sum, "stage") {
		t.Errorf("stage summary missing span: %q", sum)
	}
}

// BenchmarkStartDisabled pins the disabled-instrumentation cost: with no
// collector attached, a Start/attr/End sequence must not allocate.
func BenchmarkStartDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sctx, sp := Start(ctx, "disabled")
		sp.SetInt("i", int64(i))
		sp.End()
		_ = sctx
	}
}

// TestStartDisabledZeroAlloc enforces the benchmark's contract in the
// normal test run.
func TestStartDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := Start(ctx, "disabled")
		sp.SetInt("i", 1)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled Start/SetInt/End allocates %.1f times per op, want 0", allocs)
	}
}

func BenchmarkStartEnabled(b *testing.B) {
	c := New()
	ctx := c.Attach(context.Background())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "enabled")
		sp.End()
	}
}

func BenchmarkCounterInc(b *testing.B) {
	cnt := NewRegistry().GetCounter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cnt.Inc()
	}
}
