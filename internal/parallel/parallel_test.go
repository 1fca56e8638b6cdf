package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestForEachNRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 100
		counts := make([]atomic.Int32, n)
		err := ForEachN(context.Background(), n, func(_ context.Context, i int) error {
			counts[i].Add(1)
			return nil
		}, WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachNZeroAndNegative(t *testing.T) {
	ran := false
	if err := ForEachN(context.Background(), 0, func(context.Context, int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEachN(context.Background(), -3, func(context.Context, int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("fn ran for an empty batch")
	}
}

func TestForEachNLowestIndexError(t *testing.T) {
	// Indices 30 and 60 fail; every worker count must report 30.
	for _, workers := range []int{1, 3, 16} {
		err := ForEachN(context.Background(), 100, func(_ context.Context, i int) error {
			if i == 30 || i == 60 {
				return fmt.Errorf("boom at %d", i)
			}
			return nil
		}, WithWorkers(workers))
		if err == nil || err.Error() != "boom at 30" {
			t.Fatalf("workers=%d: got %v, want boom at 30", workers, err)
		}
	}
}

func TestForEachNCancelsAfterError(t *testing.T) {
	// With one worker, nothing past the failing index may run.
	var ran atomic.Int32
	err := ForEachN(context.Background(), 1000, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 5 {
			return fmt.Errorf("stop")
		}
		return nil
	}, WithWorkers(1))
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got != 6 {
		t.Fatalf("serial pool ran %d items after failure at index 5", got)
	}
}

func TestMapCollectsByIndex(t *testing.T) {
	items := make([]int, 50)
	for i := range items {
		items[i] = i * 3
	}
	for _, workers := range []int{1, 8} {
		out, err := Map(context.Background(), items, func(_ context.Context, i, item int) (string, error) {
			return fmt.Sprintf("%d:%d", i, item), nil
		}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if want := fmt.Sprintf("%d:%d", i, items[i]); out[i] != want {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, out[i], want)
			}
		}
	}
}

func TestMapErrorDiscardsResults(t *testing.T) {
	out, err := Map(context.Background(), []int{1, 2, 3}, func(_ context.Context, i, item int) (int, error) {
		if i == 1 {
			return 0, fmt.Errorf("no")
		}
		return item, nil
	}, WithWorkers(2))
	if err == nil || out != nil {
		t.Fatalf("got (%v, %v), want (nil, error)", out, err)
	}
}

func TestDo(t *testing.T) {
	var a, b atomic.Bool
	err := Do(context.Background(), []func(context.Context) error{
		func(context.Context) error { a.Store(true); return nil },
		func(context.Context) error { b.Store(true); return nil },
	}, WithWorkers(2))
	if err != nil || !a.Load() || !b.Load() {
		t.Fatalf("Do: err=%v a=%v b=%v", err, a.Load(), b.Load())
	}
	if err := Do(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestResolveWorkers(t *testing.T) {
	if got := resolve(10, nil); got != min(10, DefaultWorkers()) {
		t.Fatalf("default resolve = %d", got)
	}
	if got := resolve(10, []Option{WithWorkers(4)}); got != 4 {
		t.Fatalf("WithWorkers(4) = %d", got)
	}
	// Never more workers than items.
	if got := resolve(2, []Option{WithWorkers(16)}); got != 2 {
		t.Fatalf("clamp to items = %d", got)
	}
	if got := resolve(10, []Option{WithWorkers(0)}); got < 1 {
		t.Fatalf("WithWorkers(0) = %d", got)
	}
}

func TestDefaultWorkersEnvOverride(t *testing.T) {
	t.Setenv(EnvWorkers, "3")
	if got := DefaultWorkers(); got != 3 {
		t.Fatalf("JPG_WORKERS=3: DefaultWorkers() = %d", got)
	}
	t.Setenv(EnvWorkers, "not-a-number")
	if got := DefaultWorkers(); got != runtime.NumCPU() {
		t.Fatalf("invalid JPG_WORKERS: DefaultWorkers() = %d, want NumCPU", got)
	}
	t.Setenv(EnvWorkers, "-2")
	if got := DefaultWorkers(); got != runtime.NumCPU() {
		t.Fatalf("negative JPG_WORKERS: DefaultWorkers() = %d, want NumCPU", got)
	}
}

// TestBatchSpansAndLanes checks the observability contract of the pool:
// a traced batch yields one batch span plus one task span per index, with
// each task on a named worker lane, and the queue-depth gauge settles to
// its pre-batch value.
func TestBatchSpansAndLanes(t *testing.T) {
	col := obs.New()
	ctx := col.Attach(context.Background())
	depth0 := obs.GetGauge("parallel.queue_depth").Value()
	const n = 12
	if err := ForEachN(ctx, n, func(ctx context.Context, i int) error {
		_, sp := obs.Start(ctx, "inner")
		sp.End()
		return nil
	}, WithWorkers(3)); err != nil {
		t.Fatal(err)
	}
	if d := obs.GetGauge("parallel.queue_depth").Value(); d != depth0 {
		t.Errorf("queue depth did not settle: %d -> %d", depth0, d)
	}
	spans := col.Spans()
	var batches, tasks, inners int
	taskLanes := map[int64]bool{}
	for _, s := range spans {
		switch s.Name {
		case "parallel.batch":
			batches++
			if s.Lane != 0 {
				t.Errorf("batch span on lane %d, want 0 (main)", s.Lane)
			}
		case "task":
			tasks++
			taskLanes[s.Lane] = true
		case "inner":
			inners++
		}
	}
	if batches != 1 || tasks != n || inners != n {
		t.Fatalf("spans: %d batch, %d task, %d inner; want 1, %d, %d", batches, tasks, inners, n, n)
	}
	lanes := col.LaneNames()
	for lane := range taskLanes {
		if lane == 0 {
			t.Error("task span recorded on the main lane")
		} else if name := lanes[lane]; len(name) < 7 || name[:7] != "worker " {
			t.Errorf("task lane %d named %q, want worker prefix", lane, name)
		}
	}
}

// TestSerialBatchTracesOnCallerLane: workers==1 must not spawn lanes.
func TestSerialBatchTracesOnCallerLane(t *testing.T) {
	col := obs.New()
	ctx := col.Attach(context.Background())
	if err := ForEachN(ctx, 3, func(context.Context, int) error { return nil },
		WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	for _, s := range col.Spans() {
		if s.Lane != 0 {
			t.Fatalf("serial batch recorded span %q on lane %d", s.Name, s.Lane)
		}
	}
	if lanes := col.LaneNames(); len(lanes) != 1 {
		t.Fatalf("serial batch created extra lanes: %v", lanes)
	}
}

func TestForEachNCtxPreCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int32
		err := ForEachN(ctx, 50, func(context.Context, int) error {
			ran.Add(1)
			return nil
		}, WithWorkers(workers))
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got != 0 {
			t.Fatalf("workers=%d: %d tasks dispatched on a dead context", workers, got)
		}
	}
}

func TestForEachNCtxCancelStopsDispatchSerial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForEachN(ctx, 50, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 2 {
			cancel()
		}
		return nil
	}, WithWorkers(1))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("serial loop ran %d tasks after cancel at index 2, want 3", got)
	}
}

func TestForEachNCtxCancelStopsDispatchPooled(t *testing.T) {
	const n, workers = 1000, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	err := ForEachN(ctx, n, func(_ context.Context, i int) error {
		if ran.Add(1) == 5 {
			cancel()
		}
		return nil
	}, WithWorkers(workers))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// After the cancellation is observed each worker finishes at most its
	// in-flight task plus one it raced into; nothing like the full batch
	// may be dispatched.
	if got := ran.Load(); got >= n/2 {
		t.Fatalf("%d of %d tasks dispatched after mid-batch cancel", got, n)
	}
}

func TestForEachNCtxTaskErrorBeatsCancellation(t *testing.T) {
	boom := fmt.Errorf("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := ForEachN(ctx, 10, func(_ context.Context, i int) error {
		if i == 1 {
			cancel()
			return boom
		}
		return nil
	}, WithWorkers(1))
	if err != boom {
		t.Fatalf("err = %v, want the task error (lowest-index contract)", err)
	}
}

func TestMapCtxCancelledReturnsNoResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := []int{1, 2, 3}
	out, err := Map(ctx, items, func(_ context.Context, _ int, v int) (int, error) {
		return v * 2, nil
	}, WithWorkers(2))
	if err != context.Canceled || out != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", out, err)
	}
}
