// Package parallel is the repository's execution layer for farms of
// independent CAD runs. The paper's headline throughput claim (§4.1) counts
// *independent* implementations — 36 conventional runs vs 10 partial ones —
// and every experiment dispatches such runs through this package so the
// reproduction saturates the machine instead of executing them serially.
//
// The contract is deterministic parallelism: work items are identified by
// index, every item carries its own seed (supplied by the caller, never
// derived from scheduling), results are collected by index, and the error
// reported for a failed batch is the one with the lowest index. A batch
// therefore produces bit-identical results whether it runs on one worker or
// on every core, which the determinism regression tests in
// internal/experiments assert end to end.
//
// The pool is instrumented through internal/obs: each batch is a span, each
// worker is a trace lane, and each task records its queue wait (batch start
// to task start) and run time, plus always-on counters/histograms
// (parallel.tasks, parallel.task_queue_wait_ns, parallel.task_run_ns,
// parallel.queue_depth). Observability never alters scheduling or results.
package parallel

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	jpglog "repro/internal/obs/log"
)

// EnvWorkers is the environment variable overriding the default worker
// count (a positive integer; invalid or unset values fall back to
// runtime.NumCPU).
const EnvWorkers = "JPG_WORKERS"

// DefaultWorkers resolves the default pool width: $JPG_WORKERS if it parses
// to a positive integer, else runtime.NumCPU().
func DefaultWorkers() int {
	if s := os.Getenv(EnvWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.NumCPU()
}

// Option tunes one batch.
type Option func(*config)

type config struct {
	workers int
}

// WithWorkers bounds the batch to n concurrent workers. n <= 0 selects
// DefaultWorkers(); n == 1 degrades to a strictly serial in-order loop.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

func resolve(n int, opts []Option) int {
	c := config{}
	for _, o := range opts {
		o(&c)
	}
	w := c.workers
	if w <= 0 {
		w = DefaultWorkers()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Pool metrics (always on; see internal/obs).
var (
	mBatches    = obs.GetCounter("parallel.batches")
	mTasks      = obs.GetCounter("parallel.tasks")
	mCancels    = obs.GetCounter("parallel.batches_cancelled")
	mQueueDepth = obs.GetGauge("parallel.queue_depth")
	mQueueWait  = obs.GetHistogram("parallel.task_queue_wait_ns")
	mRunTime    = obs.GetHistogram("parallel.task_run_ns")
)

// task wraps one index's execution with its observability: a span on the
// executing worker's lane carrying the index and queue wait, and the
// registry's per-task histograms. batchStart anchors the queue wait — in
// this pool work is "queued" from batch start until a worker picks the
// index up.
func runTask(ctx context.Context, i int, batchStart time.Time, fn func(ctx context.Context, i int) error) error {
	wait := time.Since(batchStart)
	tctx, sp := obs.Start(ctx, "task")
	sp.SetInt("index", int64(i))
	sp.SetInt("queue_wait_ns", wait.Nanoseconds())
	t0 := time.Now()
	err := fn(tctx, i)
	mTasks.Inc()
	mQueueDepth.Add(-1)
	mQueueWait.Observe(wait.Nanoseconds())
	mRunTime.Observe(time.Since(t0).Nanoseconds())
	sp.EndErr(err)
	if err != nil {
		obs.CountError("task")
		jpglog.Warn(ctx, "parallel.task_failed", "index", i, "error", err.Error())
	}
	return err
}

// ForEachN runs fn(ctx, 0..n-1) on a bounded worker pool and waits for
// the batch. Each worker derives a per-worker context (its trace lane) from
// ctx, so spans started inside fn land on that worker's lane. On the first
// error the pool stops handing out new indices (in-flight items run to
// completion), and the returned error is the lowest-index one — not the
// first observed — so failures are reproducible across worker counts.
//
// Cancelling ctx stops the dispatch loop (serial and pooled alike): no new
// index is handed out once ctx.Done() fires, in-flight items run to
// completion, and the batch returns ctx.Err(). A task failure observed
// before the cancellation keeps the lowest-index-error contract.
func ForEachN(ctx context.Context, n int, fn func(ctx context.Context, i int) error, opts ...Option) (err error) {
	if n <= 0 {
		return nil
	}
	workers := resolve(n, opts)

	bctx, batch := obs.Start(ctx, "parallel.batch")
	batch.SetInt("tasks", int64(n))
	batch.SetInt("workers", int64(workers))
	defer func() { batch.EndErr(err) }()
	mBatches.Inc()
	mQueueDepth.Add(int64(n))
	batchStart := time.Now()

	// runTask decrements the depth gauge per executed task; on early failure
	// the never-executed remainder is settled here so the gauge returns to
	// its pre-batch level.
	var ran atomic.Int64
	exec := func(ctx context.Context, i int) error {
		ran.Add(1)
		return runTask(ctx, i, batchStart, fn)
	}
	defer func() { mQueueDepth.Add(ran.Load() - int64(n)) }()

	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := bctx.Err(); err != nil {
				mCancels.Inc()
				return err
			}
			if err := exec(bctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64 // next index to hand out
		failed   atomic.Bool  // cancel flag: stop dispatching new items
		mu       sync.Mutex
		firstIdx = n // lowest failing index seen
		firstErr error
	)
	report := func(i int, err error) {
		failed.Store(true)
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			wctx := bctx
			if obs.Active(bctx) {
				wctx = obs.Lane(bctx, "worker "+strconv.Itoa(w))
			}
			for {
				if bctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := exec(wctx, i); err != nil {
					report(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if err := bctx.Err(); err != nil {
		mCancels.Inc()
		return err
	}
	return nil
}

// Map runs fn over items on a bounded worker pool, collecting results by
// item index (never by completion order). It inherits ForEachN's
// cancel-on-first-error, lowest-index-error contract; on error the partial
// results are discarded. The per-item context carries the executing
// worker's trace lane.
func Map[T, R any](ctx context.Context, items []T, fn func(ctx context.Context, i int, item T) (R, error), opts ...Option) ([]R, error) {
	out := make([]R, len(items))
	err := ForEachN(ctx, len(items), func(ctx context.Context, i int) error {
		r, err := fn(ctx, i, items[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Do runs the given thunks concurrently (each thunk is one work item) and
// waits for all of them, with the same error contract as ForEachN. It is
// the shape for heterogeneous independent steps, e.g. a conventional build
// and a floorplanned build of the same design.
func Do(ctx context.Context, thunks []func(ctx context.Context) error, opts ...Option) error {
	return ForEachN(ctx, len(thunks), func(ctx context.Context, i int) error { return thunks[i](ctx) }, opts...)
}
