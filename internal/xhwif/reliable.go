package xhwif

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/bitstream"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/obs"
	jpglog "repro/internal/obs/log"
)

// RetryPolicy tunes a ReliableHWIF.
type RetryPolicy struct {
	// MaxAttempts bounds the download attempts per call (including the
	// first); <= 0 selects DefaultMaxAttempts.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it, capped at MaxBackoff. <= 0 selects DefaultBaseBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff; <= 0 selects
	// DefaultMaxBackoff.
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic jitter sequence added to each
	// backoff (up to half the backoff). The same seed and failure sequence
	// reproduce the same delays, so retry behaviour is testable.
	JitterSeed int64
	// Timeout bounds one DownloadCtx call end to end — attempts plus backoff
	// sleeps; 0 means no deadline.
	Timeout time.Duration
	// Verify reads the touched frames back after each apparently successful
	// download and compares them against the expected post-download state;
	// a mismatch counts as a failed attempt and is retried.
	Verify bool
}

// Defaults for RetryPolicy zero values.
const (
	DefaultMaxAttempts = 3
	DefaultBaseBackoff = time.Millisecond
	DefaultMaxBackoff  = 100 * time.Millisecond
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = DefaultBaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultMaxBackoff
	}
	return p
}

// Reliability metrics (always on; see internal/obs): the retry/abort/verify
// counts the CLIs surface after a faulted run.
var (
	mRetries     = obs.GetCounter("xhwif.retries")
	mAborts      = obs.GetCounter("xhwif.download_aborts")
	mVerifyFails = obs.GetCounter("xhwif.verify_failures")
	mVerifyOK    = obs.GetCounter("xhwif.verify_ok")
)

// ReliableHWIF decorates any HWIF with bounded retries (exponential backoff
// plus deterministic jitter), a per-download deadline, and optional
// verify-after-write readback — the reliability layer a runtime
// reconfiguration manager needs when the board link is flaky. Downloads
// through the wrapper are serialised, so the pre-download readback that
// anchors verification cannot be invalidated by a concurrent download.
type ReliableHWIF struct {
	Inner  HWIF
	Policy RetryPolicy

	// sleep is the backoff timer; tests replace it to run without real
	// delays. It returns early with ctx.Err() when the context dies.
	sleep func(ctx context.Context, d time.Duration) error

	mu  sync.Mutex
	rng *rand.Rand
	// Cumulative reliability counters (guarded by mu; read via Counts).
	retries     int64
	aborts      int64
	verifyFails int64
}

var _ HWIF = (*ReliableHWIF)(nil)

// NewReliable wraps inner with the given retry policy.
func NewReliable(inner HWIF, p RetryPolicy) *ReliableHWIF {
	p = p.withDefaults()
	return &ReliableHWIF{
		Inner:  inner,
		Policy: p,
		sleep:  sleepCtx,
		rng:    rand.New(rand.NewSource(p.JitterSeed)),
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Counts returns the cumulative retry/abort/verify-failure counters.
func (r *ReliableHWIF) Counts() (retries, aborts, verifyFailures int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries, r.aborts, r.verifyFails
}

// PartName implements HWIF.
func (r *ReliableHWIF) PartName() string { return r.Inner.PartName() }

// Readback implements HWIF.
func (r *ReliableHWIF) Readback() *frames.Memory { return r.Inner.Readback() }

// ReadbackFrames implements HWIF.
func (r *ReliableHWIF) ReadbackFrames(fars []device.FAR) ([][]uint32, error) {
	return r.Inner.ReadbackFrames(fars)
}

// ExecuteReadback implements HWIF.
func (r *ReliableHWIF) ExecuteReadback(request []byte) ([]uint32, error) {
	return r.Inner.ExecuteReadback(request)
}

// DownloadCtx implements HWIF: it downloads with retries under the policy,
// within the policy's Timeout and the caller's deadline. The returned stats
// are those of the successful attempt (Attempts counts all attempts made);
// on failure they are the last attempt's. The inner download is assumed
// transactional (as Board's is), so a retry always starts from the device's
// pre-download state.
func (r *ReliableHWIF) DownloadCtx(ctx context.Context, bs []byte) (DownloadStats, error) {
	p := r.Policy.withDefaults()
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	// Verification compares the device against the state this stream should
	// produce: the pre-download readback with the stream applied. A stream
	// that does not even apply locally is handed to the device unverified —
	// the device will reject it the same way.
	var pre, expected *frames.Memory
	if p.Verify {
		pre = r.Inner.Readback()
		exp := pre.Clone()
		if _, err := bitstream.Apply(exp, bs); err == nil {
			expected = exp
		}
	}

	var ds DownloadStats
	var err error
	// abort ends the call: it counts and logs the abort and wraps cause.
	abort := func(what string, attempts int, cause error) (DownloadStats, error) {
		r.aborts++
		mAborts.Inc()
		jpglog.Warn(ctx, "download.abort", "attempts", attempts, "error", cause.Error())
		return ds, fmt.Errorf("xhwif: download %s after %d attempt(s): %w", what, attempts, cause)
	}
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return abort("aborted", attempt-1, cerr)
		}
		ds, err = r.Inner.DownloadCtx(ctx, bs)
		ds.Attempts = attempt
		if err == nil && expected != nil {
			if verr := r.verify(pre, expected); verr != nil {
				r.verifyFails++
				mVerifyFails.Inc()
				jpglog.Warn(ctx, "download.verify_failed", "attempt", attempt, "error", verr.Error())
				err = verr
			} else {
				mVerifyOK.Inc()
			}
		}
		if err == nil {
			return ds, nil
		}
		// An attempt cut short by the call's own deadline or cancellation
		// is not retried: no further attempt could start.
		if cerr := ctx.Err(); cerr != nil {
			return abort("aborted", attempt, cerr)
		}
		if attempt >= p.MaxAttempts {
			return abort("failed", attempt, err)
		}
		r.retries++
		mRetries.Inc()
		backoff := r.backoff(p, attempt)
		jpglog.Warn(ctx, "download.retry", "attempt", attempt, "backoff_us", backoff.Microseconds(), "error", err.Error())
		if serr := r.sleep(ctx, backoff); serr != nil {
			return abort("aborted during backoff", attempt, serr)
		}
	}
}

// backoff returns the delay before retry #attempt: BaseBackoff doubled per
// prior attempt, capped at MaxBackoff, plus deterministic jitter in
// [0, backoff/2).
func (r *ReliableHWIF) backoff(p RetryPolicy, attempt int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if half := int64(d / 2); half > 0 {
		d += time.Duration(r.rng.Int63n(half))
	}
	return d
}

// verify compares the device against the expected post-download state,
// reading back only the frames the download touched.
func (r *ReliableHWIF) verify(pre, expected *frames.Memory) error {
	touched, err := expected.Diff(pre)
	if err != nil {
		return fmt.Errorf("xhwif: verify: %w", err)
	}
	got, err := r.Inner.ReadbackFrames(touched)
	if err != nil {
		return fmt.Errorf("xhwif: verify: %w", err)
	}
	for i, far := range touched {
		want := expected.Frame(far)
		for w := range want {
			if got[i][w] != want[w] {
				return fmt.Errorf("xhwif: verify failed at %v word %d: device %#08x, expected %#08x",
					far, w, got[i][w], want[w])
			}
		}
	}
	return nil
}
